package campaign

import (
	"encoding/json"
	"slices"
	"strconv"
)

// AppendResultJSON appends r as json.MarshalIndent(r, "", "  ")
// writes it, byte for byte, without encoding/json's reflection and
// per-sample re-indentation: fields in struct order with Result's
// omitempty rules, counters under sorted keys, and each sample in the
// wire form Sample.MarshalJSON also writes. Weights and notes are few,
// so encoding/json lays them out itself, keeping its float format and
// its refusal of NaN and ±Inf weight moments (the error is its own).
func AppendResultJSON(b []byte, r *Result) ([]byte, error) {
	b = slices.Grow(b, 512+128*len(r.Samples)) // an indented sample is about 120 bytes
	b = append(b, "{\n  \"scenario\": "...)
	b = appendString(b, r.Scenario)
	b = append(b, ",\n  \"requested_trials\": "...)
	b = strconv.AppendInt(b, int64(r.Requested), 10)
	b = append(b, ",\n  \"trials\": "...)
	b = strconv.AppendInt(b, int64(r.Trials), 10)
	if r.EarlyStopped {
		b = append(b, ",\n  \"early_stopped\": true"...)
	}
	if r.ResumedTrials != 0 {
		b = append(b, ",\n  \"resumed_trials\": "...)
		b = strconv.AppendInt(b, int64(r.ResumedTrials), 10)
	}
	b = append(b, ",\n  \"counters\": "...)
	b = appendCounters(b, r)
	var err error
	if len(r.Weights) > 0 {
		b = append(b, ",\n  \"weights\": "...)
		if b, err = appendIndented(b, r.Weights); err != nil {
			return nil, err
		}
	}
	if len(r.Samples) > 0 {
		b = append(b, ",\n  \"samples\": ["...)
		for i, s := range r.Samples {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, "\n    "...)
			b = indentedSample.append(b, s)
		}
		b = append(b, "\n  ]"...)
	}
	if len(r.Notes) > 0 {
		b = append(b, ",\n  \"notes\": "...)
		if b, err = appendIndented(b, r.Notes); err != nil {
			return nil, err
		}
	}
	return append(b, "\n}"...), nil
}

// appendCounters appends the counter map as encoding/json writes a
// map: null when nil, {} when empty, otherwise one sorted key a line.
func appendCounters(b []byte, r *Result) []byte {
	if r.Counters == nil {
		return append(b, "null"...)
	}
	if len(r.Counters) == 0 {
		return append(b, "{}"...)
	}
	b = append(b, '{')
	for i, name := range r.CounterNames() {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, "\n    "...)
		b = appendString(b, name)
		b = append(b, ": "...)
		b = strconv.AppendInt(b, r.Counters[name], 10)
	}
	return append(b, "\n  }"...)
}

// appendIndented appends v as json.MarshalIndent lays it out one level
// into a result.
func appendIndented(b []byte, v any) ([]byte, error) {
	data, err := json.MarshalIndent(v, "  ", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, data...), nil
}

// sampleLayout is the punctuation around a sample's four wire fields
// (see sampleWire), so that one appender writes both the compact form
// of shard records and the indented form of a result's samples array.
type sampleLayout struct{ trial, series, x, y, end string }

var (
	compactSample  = sampleLayout{`{"trial":`, `,"series":`, `,"x":`, `,"y":`, `}`}
	indentedSample = sampleLayout{"{\n      \"trial\": ", ",\n      \"series\": ", ",\n      \"x\": ", ",\n      \"y\": ", "\n    }"}
)

func (l *sampleLayout) append(b []byte, s Sample) []byte {
	b = append(b, l.trial...)
	b = strconv.AppendInt(b, int64(s.Trial), 10)
	b = append(b, l.series...)
	b = appendString(b, s.Series)
	b = append(b, l.x...)
	b = appendFloatString(b, s.X)
	b = append(b, l.y...)
	b = appendFloatString(b, s.Y)
	return append(b, l.end...)
}

// appendFloatString appends x as a quoted FormatFloat(x, 'g', -1, 64)
// string; its characters never need escaping.
func appendFloatString(b []byte, x float64) []byte {
	b = append(b, '"')
	b = strconv.AppendFloat(b, x, 'g', -1, 64)
	return append(b, '"')
}

// appendString appends s quoted as encoding/json quotes it, HTML
// escaping included. Printable ASCII with nothing to escape is copied
// between quotes; any other string goes through json.Marshal, so
// escapes, U+2028/U+2029 and invalid UTF-8 stay encoding/json's own.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
