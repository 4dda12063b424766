package rsm

// Allocation pins for the RSM serving path: message typing, the batch codec
// into reused buffers, and the retired-slot straggler reply. The per-op
// ceiling over a whole rsmbench run lives in internal/rsmbench.

import (
	"testing"
	"time"

	"repro/internal/core/consensus"
	"repro/internal/core/consensus/consensustest"
	"repro/internal/core/modpaxos"
)

var typeSink string

func TestSlotMsgTypeIsAllocFree(t *testing.T) {
	msgs := []consensus.Message{
		SlotMsg{Slot: 3, Inner: modpaxos.P1a{}},
		SlotMsg{Slot: 3, Inner: modpaxos.P1b{}},
		SlotMsg{Slot: 3, Inner: modpaxos.P2a{}},
		SlotMsg{Slot: 3, Inner: modpaxos.P2b{}},
		SlotMsg{Slot: 3, Inner: modpaxos.Decided{}},
	}
	for _, m := range msgs {
		if want := "rsm-" + m.(SlotMsg).Inner.Type(); m.Type() != want {
			t.Fatalf("%T: Type() = %q, want %q", m.(SlotMsg).Inner, m.Type(), want)
		}
	}
	if got := (SlotMsg{Inner: Learn{}}).Type(); got != "rsm-rsm-learn" {
		t.Fatalf("fallback Type() = %q", got)
	}
	if got := (SlotMsg{}).Type(); got != "rsm-slot" {
		t.Fatalf("empty SlotMsg Type() = %q", got)
	}
	allocs := testing.AllocsPerRun(100, func() {
		for _, m := range msgs {
			typeSink = m.Type()
		}
	})
	if allocs != 0 {
		t.Fatalf("SlotMsg.Type allocated %.2f per round, want 0", allocs)
	}
}

func TestBatchCodecIntoWarmBuffersIsAllocFree(t *testing.T) {
	cmds := make([]Command, 8)
	for i := range cmds {
		cmds[i] = Command{Client: int64(1000 + i), Seq: uint64(70000 + i), Op: "set k12 c1003-70000"}
	}
	buf := appendBatch(nil, cmds)
	if string(buf) != string(EncodeBatch(cmds)) {
		t.Fatalf("appendBatch %q differs from EncodeBatch %q", buf, EncodeBatch(cmds))
	}
	if allocs := testing.AllocsPerRun(100, func() { buf = appendBatch(buf[:0], cmds) }); allocs != 0 {
		t.Fatalf("appendBatch into a warm buffer allocated %.2f, want 0", allocs)
	}
	v := consensus.Value(buf)
	dec := appendDecoded(nil, v)
	if allocs := testing.AllocsPerRun(100, func() { dec = appendDecoded(dec[:0], v) }); allocs != 0 {
		t.Fatalf("appendDecoded into a warm slice allocated %.2f, want 0", allocs)
	}
}

// TestStragglerReplyIsBoxedOnce: a retired slot answers every straggler
// with one shared SlotMsg{Decided}, so only the first reply allocates, and
// compaction drops it with the decision.
func TestStragglerReplyIsBoxedOnce(t *testing.T) {
	factory, err := New(Config{Paxos: modpaxos.Config{Delta: time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	r := factory(0, 3, NoOp).(*Replica)
	env := consensustest.New(0, 3)
	r.Init(env)
	r.onSlotDecided(0, "set a 1") // applies and retires slot 0
	env.Outbox = make([]consensustest.Sent, 0, 256)

	straggler := consensus.Message(SlotMsg{Slot: 0, Inner: modpaxos.P2b{Val: "set a 1"}})
	r.HandleMessage(1, straggler)
	want := SlotMsg{Slot: 0, Inner: modpaxos.Decided{Val: "set a 1"}}
	if len(env.Outbox) != 1 || env.Outbox[0] != (consensustest.Sent{To: 1, Msg: want}) {
		t.Fatalf("straggler answered with %+v, want one %+v to 1", env.Outbox, want)
	}
	if allocs := testing.AllocsPerRun(100, func() { r.HandleMessage(1, straggler) }); allocs != 0 {
		t.Fatalf("repeated straggler reply allocated %.2f, want 0", allocs)
	}
	if len(env.Outbox) != 102 {
		t.Fatalf("%d replies for 102 stragglers", len(env.Outbox))
	}
	r.truncateBelow(1, nil)
	if len(r.replies) != 0 {
		t.Fatalf("%d straggler replies kept below the compaction horizon", len(r.replies))
	}
}
