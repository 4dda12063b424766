package rsm

import (
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core/consensus"
)

func TestBatchRoundTrip(t *testing.T) {
	in := []Command{
		{Client: 7, Seq: 1, Op: "set a 1"},
		{Client: 9, Seq: 300, Op: ""},
		{Client: -1, Seq: 0, Op: "raw bytes with : and , and | inside"},
	}
	out := DecodeBatch(EncodeBatch(in))
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip:\n in  %+v\n out %+v", in, out)
	}
}

func TestBatchSingleEntry(t *testing.T) {
	in := []Command{{Client: 3, Seq: 5, Op: "set k v"}}
	out := DecodeBatch(EncodeBatch(in))
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("got %+v", out)
	}
}

func TestDecodeNonBatchValueIsSessionless(t *testing.T) {
	out := DecodeBatch("set color blue")
	want := []Command{{Op: "set color blue"}}
	if !reflect.DeepEqual(out, want) {
		t.Fatalf("got %+v, want %+v", out, want)
	}
}

func TestDecodeMalformedFallsBack(t *testing.T) {
	for _, v := range []consensus.Value{
		"b1|garbage",
		"b1|1,2,999:short",
		"b1|1,2:missing-len",
		"b1|x,y,z:abc",
	} {
		out := DecodeBatch(v)
		if len(out) != 1 || out[0].Op != v || out[0].Seq != 0 {
			t.Fatalf("malformed %q decoded to %+v, want single sessionless fallback", v, out)
		}
	}
}

func TestEncodeEmptyBatchIsNotNoOp(t *testing.T) {
	// An empty batch still encodes to a non-NoOp value (slots proposed with
	// it would apply zero commands, not be skipped as recovery NoOps).
	if v := EncodeBatch(nil); v == NoOp {
		t.Fatal("empty batch encoded as NoOp")
	}
	if out := DecodeBatch(EncodeBatch(nil)); len(out) != 0 {
		t.Fatalf("empty batch decoded to %+v", out)
	}
}

// decodeBatchOracle is the strings/strconv decoder the hand scan replaced,
// kept verbatim as the reference FuzzDecodeBatch checks appendDecoded
// against.
func decodeBatchOracle(v consensus.Value) []Command {
	s := string(v)
	if !strings.HasPrefix(s, batchPrefix) {
		return []Command{{Op: v}}
	}
	rest := s[len(batchPrefix):]
	var out []Command
	for len(rest) > 0 {
		head, tail, ok := strings.Cut(rest, ":")
		if !ok {
			return []Command{{Op: v}}
		}
		parts := strings.SplitN(head, ",", 3)
		if len(parts) != 3 {
			return []Command{{Op: v}}
		}
		client, err1 := strconv.ParseInt(parts[0], 10, 64)
		seq, err2 := strconv.ParseUint(parts[1], 10, 64)
		opLen, err3 := strconv.Atoi(parts[2])
		if err1 != nil || err2 != nil || err3 != nil || opLen < 0 || opLen > len(tail) {
			return []Command{{Op: v}}
		}
		out = append(out, Command{Client: client, Seq: seq, Op: consensus.Value(tail[:opLen])})
		rest = tail[opLen:]
	}
	return out
}

// FuzzDecodeBatch holds the hand-scanned decoder equal to the strconv
// oracle on every input, decoding both fresh and into a used scratch slice,
// and checks that encoding then decoding returns the commands unchanged.
// The committed corpus (testdata/fuzz/FuzzDecodeBatch) covers signs,
// leading zeros, overflow, truncated lengths and non-batch values.
func FuzzDecodeBatch(f *testing.F) {
	f.Add("b1|7,1,7:set a 1", int64(7), uint64(1), "set a 1")
	f.Add("b1|", int64(0), uint64(0), "")
	f.Add("set color blue", int64(-1), uint64(0), "raw")
	f.Add("b1|-9223372036854775808,18446744073709551615,0:", int64(-1<<63), uint64(1<<64-1), "")
	f.Add("b1|9223372036854775808,1,0:", int64(1<<63-1), uint64(0), ":,|")
	f.Add("b1|1,18446744073709551616,0:", int64(1), uint64(2), "x")
	f.Add("b1|+1,01,+003:abc-0,-0,-0:", int64(3), uint64(5), "a,b:c")
	f.Add("b1|1,+2,0:", int64(1), uint64(2), "")
	f.Add("b1|1,2,9:short", int64(1), uint64(2), "short")
	f.Add("b1|1,2,3,4:abcd", int64(1), uint64(2), "abcd")
	f.Add("b1|1,2,1_0:abcdefghij", int64(1), uint64(2), "")
	f.Fuzz(func(t *testing.T, v string, client int64, seq uint64, op string) {
		want := decodeBatchOracle(consensus.Value(v))
		if got := DecodeBatch(consensus.Value(v)); !reflect.DeepEqual(got, want) {
			t.Fatalf("DecodeBatch(%q) = %+v, oracle %+v", v, got, want)
		}
		scratch := []Command{{Client: 99, Seq: 99, Op: "keep"}, {Op: "stale"}}
		got := appendDecoded(scratch[:1], consensus.Value(v))
		if !reflect.DeepEqual(got[0], scratch[0]) || !reflect.DeepEqual(got[1:], append([]Command{}, want...)) {
			t.Fatalf("appendDecoded into scratch for %q = %+v, want prefix kept then %+v", v, got, want)
		}
		cmds := append(append([]Command{}, want...), Command{Client: client, Seq: seq, Op: consensus.Value(op)})
		if back := DecodeBatch(EncodeBatch(cmds)); !reflect.DeepEqual(back, cmds) {
			t.Fatalf("round trip of %+v gave %+v", cmds, back)
		}
	})
}
