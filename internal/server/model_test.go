package server

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"strconv"
	"testing"
)

// protoModel is a sequential reference for the served protocol: it answers
// a request script one request at a time from a map, with no batching, no
// writev, no shards and no locks. Whatever the server does to go fast, its
// response stream for a script must equal the model's byte for byte.
//
// It speaks the subset the ordering tests send (get, gets, set with
// exptime 0, delete, noop, version, and the error lines) and fails the
// test on anything else rather than guess.
type protoModel struct {
	items map[string]modelItem
	cas   uint64 // last cas handed out; the store's sequence starts at 1 too
}

type modelItem struct {
	value []byte
	flags uint32
	cas   uint64
}

func newProtoModel() *protoModel { return &protoModel{items: map[string]modelItem{}} }

// run answers script and returns the response stream.
func (m *protoModel) run(t testing.TB, script []byte) []byte {
	t.Helper()
	br := bufio.NewReader(bytes.NewReader(script))
	var out bytes.Buffer
	var req Request
	for {
		err := ParseRequest(br, &req, 0)
		var cerr ClientError
		switch {
		case err == io.EOF:
			return out.Bytes()
		case errors.As(err, &cerr):
			out.WriteString("CLIENT_ERROR " + string(cerr) + "\r\n")
			continue
		case errors.Is(err, ErrUnknownCommand):
			out.WriteString("ERROR\r\n")
			continue
		case err != nil:
			t.Fatalf("model: script does not parse: %v", err)
		}
		switch req.Op {
		case OpGet, OpGets:
			for _, k := range req.Keys {
				it, ok := m.items[string(k)]
				if !ok {
					continue
				}
				out.WriteString("VALUE " + string(k) + " " + strconv.FormatUint(uint64(it.flags), 10) +
					" " + strconv.Itoa(len(it.value)))
				if req.Op == OpGets {
					out.WriteString(" " + strconv.FormatUint(it.cas, 10))
				}
				out.WriteString("\r\n")
				out.Write(it.value)
				out.WriteString("\r\n")
			}
			out.WriteString("END\r\n")
		case OpSet:
			if req.Exptime != 0 {
				t.Fatalf("model: set with exptime %d", req.Exptime)
			}
			m.cas++
			m.items[string(req.Keys[0])] = modelItem{bytes.Clone(req.Value), req.Flags, m.cas}
			if !req.NoReply {
				out.WriteString("STORED\r\n")
			}
		case OpDelete:
			_, ok := m.items[string(req.Keys[0])]
			delete(m.items, string(req.Keys[0]))
			switch {
			case req.NoReply:
			case ok:
				out.WriteString("DELETED\r\n")
			default:
				out.WriteString("NOT_FOUND\r\n")
			}
		case OpNoop:
			out.WriteString("NOOP\r\n")
		case OpVersion:
			out.WriteString("VERSION " + Version + "\r\n")
		default:
			t.Fatalf("model: op %s not modelled", opNames[req.Op])
		}
	}
}

// firstDiff fails t with the neighbourhood of the first byte where got and
// want differ, if they do.
func firstDiff(t testing.TB, got, want []byte) {
	t.Helper()
	if bytes.Equal(got, want) {
		return
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	lo := max(i-50, 0)
	t.Fatalf("response stream diverges from the model at byte %d of %d (model %d):\nserved: %q\nmodel:  %q",
		i, len(got), len(want), got[lo:min(i+50, len(got))], want[lo:min(i+50, len(want))])
}
