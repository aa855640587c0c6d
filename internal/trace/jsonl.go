package trace

import "strconv"

// Hand-built JSONL encoding. encoding/json would work, but the trace
// contract is *byte*-determinism — same seed, same bytes, at any runner
// parallelism — so the encoder keeps full control: fixed field order
// per kind, no maps, and floats formatted by strconv with the shortest
// round-trippable form ('g', -1, 64), the same convention the
// experiment JSONL uses. Fields that a kind does not use are omitted
// entirely rather than emitted as zeroes, keeping traces compact
// (they are the bulkiest artifact this repo produces).

// appendMeta appends the per-connection flush header line.
func appendMeta(b []byte, conn int32, label string, events int, dropped int64) []byte {
	b = append(b, `{"ev":"meta","conn":`...)
	b = strconv.AppendInt(b, int64(conn), 10)
	if label != "" {
		b = append(b, `,"label":`...)
		b = appendString(b, label)
	}
	b = append(b, `,"events":`...)
	b = strconv.AppendInt(b, int64(events), 10)
	b = append(b, `,"dropped":`...)
	b = strconv.AppendInt(b, dropped, 10)
	b = append(b, '}', '\n')
	return b
}

// appendEvent appends one event line. Field sets are fixed per kind so
// the schema (DESIGN.md §17) is enumerable.
func appendEvent(b []byte, ev Event) []byte {
	b = append(b, `{"ev":"`...)
	b = append(b, ev.Kind.String()...)
	b = append(b, `","t":`...)
	b = strconv.AppendInt(b, ev.T, 10)
	switch ev.Kind {
	case KindLinkState:
		b = append(b, `,"name":`...)
		b = appendString(b, ev.Name)
		b = append(b, `,"what":`...)
		b = appendString(b, ev.Label)
		b = append(b, `,"v":`...)
		b = strconv.AppendFloat(b, ev.V, 'g', -1, 64)
	default:
		b = append(b, `,"conn":`...)
		b = strconv.AppendInt(b, int64(ev.Conn), 10)
		b = append(b, `,"sub":`...)
		b = strconv.AppendInt(b, int64(ev.Sub), 10)
		switch ev.Kind {
		case KindCwnd, KindPenalty:
			b = append(b, `,"cwnd":`...)
			b = strconv.AppendFloat(b, ev.V, 'g', -1, 64)
		case KindRTT:
			b = append(b, `,"rtt_s":`...)
			b = strconv.AppendFloat(b, ev.V, 'g', -1, 64)
		case KindLoss:
			b = append(b, `,"via":`...)
			b = appendString(b, ev.Label)
			b = append(b, `,"seq":`...)
			b = strconv.AppendInt(b, ev.Seq, 10)
		case KindRetx:
			b = append(b, `,"seq":`...)
			b = strconv.AppendInt(b, ev.Seq, 10)
		case KindOppRetx, KindSchedPick:
			b = append(b, `,"data_seq":`...)
			b = strconv.AppendInt(b, ev.Seq, 10)
		case KindSubflowState:
			b = append(b, `,"state":`...)
			b = appendString(b, ev.Label)
		}
	}
	b = append(b, '}', '\n')
	return b
}

// appendString appends s as a JSON string. Trace strings are short
// ASCII identifiers chosen by this repo, but escape defensively so a
// label can never corrupt the stream.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			b = append(b, '\\', c)
		case c < 0x20:
			const hex = "0123456789abcdef"
			b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
		default:
			b = append(b, c)
		}
	}
	return append(b, '"')
}
