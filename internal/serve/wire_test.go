package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"testing"
)

// canonEmpty clears the request's empty omitempty slices, which a JSON
// round trip turns into nil.
func canonEmpty(r *SolveRequest) {
	if r.Power == nil {
		return
	}
	if len(r.Power.DRAM) == 0 {
		r.Power.DRAM = nil
	}
	for s := range r.Power.DRAM {
		if len(r.Power.DRAM[s].BankW) == 0 {
			r.Power.DRAM[s].BankW = nil
		}
	}
}

// FuzzDecodeRequest drives /solve's decode-and-validate step with
// arbitrary bodies: it never panics, every rejection is a
// *RequestError, and an accepted request re-marshals and re-decodes to
// an equal request.
func FuzzDecodeRequest(f *testing.F) {
	f.Add([]byte(`{"scheme":"banke","grid":16,"power":{"proc":{"core0":2.5,"l2_0":0.5},"dram":[{"background_w":0.3,"bank_w":[[0.01,0.02]]}]}}`))
	f.Add([]byte(`{"scheme":"base","mode":"app","app":{"name":"lu-nas","freq_ghz":2.4,"instructions":60000},"fastpath":true,"field":true}`))
	f.Add([]byte(`{"scheme":"prior","power":{"proc":{"core0":1}},"extra":1}`))
	f.Add([]byte(`{"scheme":"bank","grid":4096,"power":{"proc":{"core0":1e308}}}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := decodeRequest(bytes.NewReader(body))
		if err != nil {
			var re *RequestError
			if !errors.As(err, &re) {
				t.Fatalf("rejection %v (%T) is not a *RequestError", err, err)
			}
			return
		}
		out, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("accepted request does not marshal: %v", err)
		}
		again, err := decodeRequest(bytes.NewReader(out))
		if err != nil {
			t.Fatalf("re-marshalled request %s rejected: %v", out, err)
		}
		canonEmpty(req)
		canonEmpty(again)
		if !reflect.DeepEqual(req, again) {
			t.Fatalf("request %+v re-decodes to %+v", req, again)
		}
	})
}
