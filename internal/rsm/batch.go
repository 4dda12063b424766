package rsm

import (
	"strconv"
	"strings"

	"repro/internal/core/consensus"
)

// Command is one client operation inside a batched slot value. Client and
// Seq form the session identity used for exactly-once deduplication at
// apply time: Seq is 1-based and monotonic per client, and Seq == 0 marks a
// sessionless command (legacy injection paths) that is applied
// unconditionally.
type Command struct {
	Client int64
	Seq    uint64
	Op     consensus.Value
}

// batchPrefix versions the on-wire batch encoding. A decided value without
// it is treated as a single sessionless command, so raw values injected by
// tests (or decided by recovery ballots of older logs) still apply.
const batchPrefix = "b1|"

// EncodeBatch packs commands into one consensus value. The encoding is
// length-prefixed per entry ("client,seq,oplen:op"), so ops may contain any
// bytes including the separator.
func EncodeBatch(cmds []Command) consensus.Value {
	// Size the buffer for the longest possible numbers so the encoding
	// takes one buffer plus the string copy.
	n := len(batchPrefix)
	for _, c := range cmds {
		n += 3*maxDigits + 3 + len(c.Op)
	}
	return consensus.Value(appendBatch(make([]byte, 0, n), cmds))
}

// maxDigits is the longest base-10 rendering of an int64 or uint64.
const maxDigits = 20

// appendBatch appends the encoding of cmds to dst. The replica encodes
// every batch into one reused buffer, so a warm buffer allocates nothing.
//
//repro:hotpath
func appendBatch(dst []byte, cmds []Command) []byte {
	dst = append(dst, batchPrefix...)
	for _, c := range cmds {
		dst = strconv.AppendInt(dst, c.Client, 10)
		dst = append(dst, ',')
		dst = strconv.AppendUint(dst, c.Seq, 10)
		dst = append(dst, ',')
		dst = strconv.AppendInt(dst, int64(len(c.Op)), 10)
		dst = append(dst, ':')
		dst = append(dst, c.Op...)
	}
	return dst
}

// DecodeBatch unpacks a slot value into its commands. Non-batch values
// (including anything malformed) decode as a single sessionless command, so
// every decided non-NoOp value applies exactly once somehow.
func DecodeBatch(v consensus.Value) []Command { return appendDecoded(nil, v) }

// appendDecoded appends the commands of v to dst, with DecodeBatch's
// semantics: a value that is not a well-formed batch appends one
// sessionless command. Fields are cut with IndexByte and parsed by the same
// strconv calls as before (which allocate only on error), and ops are
// substrings of v, so decoding a well-formed batch into a reused dst
// allocates nothing.
//
//repro:hotpath
func appendDecoded(dst []Command, v consensus.Value) []Command {
	s := string(v)
	if !strings.HasPrefix(s, batchPrefix) {
		return append(dst, Command{Op: v})
	}
	base := len(dst)
	rest := s[len(batchPrefix):]
	for len(rest) > 0 {
		colon := strings.IndexByte(rest, ':')
		if colon < 0 {
			return append(dst[:base], Command{Op: v})
		}
		head, tail := rest[:colon], rest[colon+1:]
		c1 := strings.IndexByte(head, ',')
		if c1 < 0 {
			return append(dst[:base], Command{Op: v})
		}
		c2 := strings.IndexByte(head[c1+1:], ',')
		if c2 < 0 {
			return append(dst[:base], Command{Op: v})
		}
		c2 += c1 + 1
		client, err1 := strconv.ParseInt(head[:c1], 10, 64)
		seq, err2 := strconv.ParseUint(head[c1+1:c2], 10, 64)
		opLen, err3 := strconv.Atoi(head[c2+1:])
		if err1 != nil || err2 != nil || err3 != nil || opLen < 0 || opLen > len(tail) {
			return append(dst[:base], Command{Op: v})
		}
		dst = append(dst, Command{Client: client, Seq: seq, Op: consensus.Value(tail[:opLen])})
		rest = tail[opLen:]
	}
	return dst
}
