// Package netsync runs the synchronization protocol over real TCP
// connections: every node is a small server exchanging timestamped probes
// with its peers; one node additionally acts as coordinator, collecting
// per-link statistics reports and answering with the optimal corrections
// (the centralized computation of the paper, deployed).
//
// Clock model: each node's clock reads Unix time plus a configured offset
// (the offset emulates the unknown start skew; on real deployments it IS
// the unknown quantity being recovered). Hardware clocks of one machine
// tick at one rate, so the drift-free assumption holds exactly for
// in-process and same-host clusters; across hosts, inflate assumptions
// with the drift package.
//
// Wire format: newline-delimited JSON, one message per line.
package netsync

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net"
	"time"

	"clocksync/internal/model"
	"clocksync/internal/obs"
	"clocksync/internal/round"
	"clocksync/internal/trace"
)

// maxFrame bounds one wire frame. Frames are per-link statistics, result
// vectors or probes — kilobytes at realistic cluster sizes — so a
// megabyte is generous headroom while keeping a hostile peer from
// growing the read buffer without bound.
const maxFrame = 1 << 20

// Message is the wire envelope; exactly one payload field is set,
// selected by Type.
type Message struct {
	Type string `json:"type"` // probe|report|result

	// probe
	From      model.ProcID `json:"from,omitempty"`
	SendClock float64      `json:"sendClock,omitempty"`

	// report
	Origin model.ProcID `json:"origin,omitempty"`
	Links  []LinkStats  `json:"links,omitempty"`

	// result
	Corrections []float64      `json:"corrections,omitempty"`
	Precision   float64        `json:"precision,omitempty"`
	Degraded    bool           `json:"degraded,omitempty"`
	Missing     []model.ProcID `json:"missing,omitempty"`
	Excised     []model.ProcID `json:"excised,omitempty"`
	Synced      []bool         `json:"synced,omitempty"`
	Err         string         `json:"err,omitempty"`

	// Trace context, attached to every frame type when the cluster runs
	// with tracing enabled (Config.Trace) and absent otherwise, so the
	// wire format is byte-identical to older peers until tracing is on.
	// Old peers ignore the fields (unknown JSON keys are skipped); in
	// keyed clusters they are covered by the MAC like every other field.
	//
	// TraceID is the cluster-wide correlation id (DeriveTraceID); Span is
	// the sender-side span causally preceding this frame (a probe's
	// "probe" burst span, a report's "report.send" mark), letting the
	// receiver parent its receive span across the process boundary; Round
	// is the synchronization round the frame belongs to.
	TraceID string     `json:"traceId,omitempty"`
	Span    obs.SpanID `json:"span,omitempty"`
	Round   int        `json:"round,omitempty"`
	// Spans, on report frames, ships the reporter's locally recorded
	// spans so the coordinator can reassemble one cluster-wide round
	// trace. Span ids are collision-free across nodes by construction
	// (obs.Trace.NewSpanID allocates from per-node id ranges).
	Spans []obs.Span `json:"spans,omitempty"`

	// MAC authenticates the frame under the sender's key when the cluster
	// is configured with a keyring (Config.Keys); empty otherwise.
	MAC []byte `json:"mac,omitempty"`
}

// frameBody returns the bytes a frame's MAC covers: the message's JSON
// encoding with the MAC field emptied. Struct-driven marshaling emits
// fields in declaration order, so signer and verifier agree on the bytes
// without a bespoke canonical form.
func frameBody(m *Message) ([]byte, error) {
	cp := *m
	cp.MAC = nil
	body, err := json.Marshal(&cp)
	if err != nil {
		return nil, fmt.Errorf("netsync: encode for MAC: %w", err)
	}
	return body, nil
}

// DeriveTraceID returns the deterministic cluster-wide trace id for a
// cluster seed: every participant computes the same id from its own
// configuration, so probe and report frames correlate without any
// id-agreement handshake.
func DeriveTraceID(seed int64) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("clocksync-netsync-trace:%d", seed)))
	return hex.EncodeToString(sum[:8])
}

// LinkStats carries the reporter's incoming-direction summary of one link.
type LinkStats struct {
	From  model.ProcID `json:"from"`
	To    model.ProcID `json:"to"`
	Count int          `json:"count"`
	Min   float64      `json:"min"`
	Max   float64      `json:"max"`
}

// roundLinks converts a report frame's links to the round's form; the
// round validates them.
func roundLinks(ls []LinkStats) []round.DirReport {
	links := make([]round.DirReport, len(ls))
	for i, l := range ls {
		links[i] = round.DirReport{From: l.From, To: l.To,
			Stats: trace.DirStats{Count: l.Count, Min: l.Min, Max: l.Max}}
	}
	return links
}

// conn wraps a TCP connection with JSON line framing.
type conn struct {
	raw net.Conn
	r   *bufio.Reader
	enc *json.Encoder
}

func newConn(raw net.Conn) *conn {
	return &conn{raw: raw, r: bufio.NewReader(raw), enc: json.NewEncoder(raw)}
}

func (c *conn) send(m *Message, timeout time.Duration) error {
	if timeout > 0 {
		if err := c.raw.SetWriteDeadline(time.Now().Add(timeout)); err != nil {
			return err
		}
	}
	return c.enc.Encode(m) // Encode appends the newline
}

func (c *conn) recv(timeout time.Duration) (*Message, error) {
	if timeout > 0 {
		if err := c.raw.SetReadDeadline(time.Now().Add(timeout)); err != nil {
			return nil, err
		}
	}
	line, err := readFrame(c.r)
	if err != nil {
		return nil, err
	}
	return decodeMessage(line)
}

// readFrame reads one newline-terminated frame of at most maxFrame
// bytes. The cap is enforced chunk by chunk, so a peer streaming an
// endless line costs a bounded buffer, not unbounded memory.
func readFrame(r *bufio.Reader) ([]byte, error) {
	var line []byte
	for {
		chunk, err := r.ReadSlice('\n')
		if len(line)+len(chunk) > maxFrame {
			return nil, fmt.Errorf("netsync: frame exceeds %d bytes", maxFrame)
		}
		line = append(line, chunk...)
		switch err {
		case nil:
			return line, nil
		case bufio.ErrBufferFull:
			continue // newline not in the buffer yet: keep accumulating
		default:
			return nil, err
		}
	}
}

// decodeMessage parses one frame. It is the single entry point for
// untrusted bytes (FuzzWireDecode drives it): malformed input must yield
// an error — never a panic, and never allocation beyond the frame's own
// size times a small constant.
func decodeMessage(line []byte) (*Message, error) {
	if len(line) > maxFrame {
		return nil, fmt.Errorf("netsync: frame exceeds %d bytes", maxFrame)
	}
	var m Message
	if err := json.Unmarshal(line, &m); err != nil {
		return nil, fmt.Errorf("netsync: decode message: %w", err)
	}
	switch m.Type {
	case "probe", "report", "result":
	default:
		return nil, fmt.Errorf("netsync: unknown message type %q", m.Type)
	}
	return &m, nil
}

func (c *conn) close() error { return c.raw.Close() }
