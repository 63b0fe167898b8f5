package serve

import (
	"encoding/json"
	"math"
	"reflect"
	"slices"
	"strconv"
)

// This file is the durable write path's JSON encoder: audit records,
// WAL session records and snapshot session sections are appended field
// by field into byte buffers instead of reflected through encoding/json.
// The bytes are exactly encoding/json's for the same values — field
// order, omitempty, float format, string escaping and map key order —
// so the decode side stays json.Unmarshal into sessionState, and data
// dirs written by either encoder read alike. FuzzDurableEncode holds
// every function here to json.Marshal byte for byte (DESIGN §16 D11).

// appendFloat appends f as encoding/json does: the shortest decimal that
// round-trips, in 'f' form except for magnitudes below 1e-6 or from 1e21
// up, which take 'e' form with a one-digit negative exponent where it
// fits. NaN and ±Inf have no JSON form and fail as json.Marshal fails.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-07 → e-7, as encoding/json writes it.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// appendString appends s as a JSON string. Printable ASCII with nothing
// to escape — every identifier the service writes — is copied straight
// into quotes; anything else (control bytes, '"', '\\', the HTML
// characters json escapes, non-ASCII, invalid UTF-8) takes
// encoding/json's own string encoder, which cannot fail on a string.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s)
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendBool appends v as a JSON literal.
func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, "true"...)
	}
	return append(b, "false"...)
}

// appendPlan appends a PlanPayload: nil groups are "null", as
// encoding/json writes a nil slice.
func appendPlan(b []byte, p *PlanPayload) ([]byte, error) {
	var err error
	b = append(b, `{"groups":`...)
	if p.Groups == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range p.Groups {
			g := &p.Groups[i]
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"type":`...)
			b = appendString(b, g.Type)
			b = append(b, `,"zone":`...)
			b = appendString(b, g.Zone)
			b = append(b, `,"instances":`...)
			b = strconv.AppendInt(b, int64(g.Instances), 10)
			b = append(b, `,"bid":`...)
			if b, err = appendFloat(b, g.Bid); err != nil {
				return b, err
			}
			b = append(b, `,"interval_hours":`...)
			if b, err = appendFloat(b, g.IntervalHours); err != nil {
				return b, err
			}
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	b = append(b, `,"recovery":{"type":`...)
	b = appendString(b, p.Recovery.Type)
	b = append(b, `,"instances":`...)
	b = strconv.AppendInt(b, int64(p.Recovery.Instances), 10)
	b = append(b, `,"hours":`...)
	if b, err = appendFloat(b, p.Recovery.Hours); err != nil {
		return b, err
	}
	return append(b, "}}"...), nil
}

// appendAuditHead appends an AuditRecord's fields up to and including
// the "market_versions" key; the caller appends the version object and
// then appendAuditRest. The split lets recordAudit write the version
// object straight from the market, with no map in between.
func appendAuditHead(b []byte, rec *AuditRecord) ([]byte, error) {
	var err error
	b = append(b, `{"window":`...)
	b = strconv.AppendInt(b, int64(rec.Window), 10)
	b = append(b, `,"boundary_hours":`...)
	if b, err = appendFloat(b, rec.BoundaryHours); err != nil {
		return b, err
	}
	b = append(b, `,"trigger":`...)
	b = appendString(b, rec.Trigger)
	b = append(b, `,"old_plan":`...)
	if b, err = appendPlan(b, &rec.OldPlan); err != nil {
		return b, err
	}
	if rec.NewPlan != nil {
		b = append(b, `,"new_plan":`...)
		if b, err = appendPlan(b, rec.NewPlan); err != nil {
			return b, err
		}
	}
	return append(b, `,"market_versions":`...), nil
}

// appendAuditRest appends an AuditRecord's fields after the version
// object, closing the record. Zero costs and an empty error are omitted
// (omitempty; -0 is zero too).
func appendAuditRest(b []byte, rec *AuditRecord) ([]byte, error) {
	var err error
	b = append(b, `,"old_plan_cost":`...)
	if b, err = appendFloat(b, rec.OldPlanCost); err != nil {
		return b, err
	}
	if rec.NewPlanCost != 0 {
		b = append(b, `,"new_plan_cost":`...)
		if b, err = appendFloat(b, rec.NewPlanCost); err != nil {
			return b, err
		}
	}
	if rec.CostDelta != 0 {
		b = append(b, `,"cost_delta":`...)
		if b, err = appendFloat(b, rec.CostDelta); err != nil {
			return b, err
		}
	}
	if rec.Error != "" {
		b = append(b, `,"error":`...)
		b = appendString(b, rec.Error)
	}
	return append(b, '}'), nil
}

// appendAudit appends one whole AuditRecord, its version map in sorted
// key order ("null" when nil), as encoding/json orders a map.
func appendAudit(b []byte, rec *AuditRecord) ([]byte, error) {
	b, err := appendAuditHead(b, rec)
	if err != nil {
		return b, err
	}
	if rec.MarketVersions == nil {
		b = append(b, "null"...)
	} else {
		names := make([]string, 0, len(rec.MarketVersions))
		for name := range rec.MarketVersions {
			names = append(names, name)
		}
		slices.Sort(names)
		b = append(b, '{')
		for i, name := range names {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendString(b, name)
			b = append(b, ':')
			b = strconv.AppendUint(b, rec.MarketVersions[name], 10)
		}
		b = append(b, '}')
	}
	return appendAuditRest(b, rec)
}

// appendAuditList appends an array of encoded audit records under key,
// or nothing when the list is empty (the omitempty rule of both audit
// forms).
func appendAuditList(b []byte, key string, recs []json.RawMessage) []byte {
	if len(recs) == 0 {
		return b
	}
	b = append(b, key...)
	b = append(b, '[')
	for i, r := range recs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, r...)
	}
	return append(b, ']')
}

// appendSession appends st as a sessionState document, with the parts
// that are encoded once and then reused spliced in: req is st.Req's
// encoding, and audit and tail are the encoded records of st.Audit and
// st.AuditTail (those three fields of st are not read).
func appendSession(b []byte, st *sessionState, req []byte, audit, tail []json.RawMessage) ([]byte, error) {
	var err error
	b = append(b, `{"seq":`...)
	b = strconv.AppendUint(b, st.Seq, 10)
	b = append(b, `,"id":`...)
	b = appendString(b, st.ID)
	b = append(b, `,"app":`...)
	b = appendString(b, st.App)
	b = append(b, `,"req":`...)
	b = append(b, req...)
	for _, f := range [...]struct {
		key string
		v   float64
	}{
		{`,"history_hours":`, st.History},
		{`,"deadline_hours":`, st.Deadline},
		{`,"start_hours":`, st.Start},
		{`,"progress":`, st.Progress},
		{`,"elapsed_hours":`, st.Elapsed},
		{`,"cost":`, st.Cost},
	} {
		b = append(b, f.key...)
		if b, err = appendFloat(b, f.v); err != nil {
			return b, err
		}
	}
	b = append(b, `,"windows":`...)
	b = strconv.AppendInt(b, int64(st.Windows), 10)
	b = append(b, `,"completed":`...)
	b = appendBool(b, st.Completed)
	b = append(b, `,"all_groups_dead":`...)
	b = appendBool(b, st.AllGroupsDead)
	b = append(b, `,"plan":`...)
	if b, err = appendPlan(b, &st.Plan); err != nil {
		return b, err
	}
	for _, f := range [...]struct {
		key string
		v   float64
	}{
		{`,"plan_scale":`, st.PlanScale},
		{`,"train_start_hours":`, st.TrainStart},
		{`,"train_dur_hours":`, st.TrainDur},
		{`,"boundary_hours":`, st.Boundary},
	} {
		b = append(b, f.key...)
		if b, err = appendFloat(b, f.v); err != nil {
			return b, err
		}
	}
	b = append(b, `,"plan_version":`...)
	b = strconv.AppendUint(b, st.PlanVersion, 10)
	b = append(b, `,"plan_cost":`...)
	if b, err = appendFloat(b, st.PlanCost); err != nil {
		return b, err
	}
	b = append(b, `,"reoptimized":`...)
	b = strconv.AppendInt(b, int64(st.Reopts), 10)
	b = append(b, `,"done":`...)
	b = appendBool(b, st.Done)
	b = appendAuditList(b, `,"audit":`, audit)
	if st.AuditN != 0 {
		b = append(b, `,"audit_n":`...)
		b = strconv.AppendUint(b, st.AuditN, 10)
	}
	b = appendAuditList(b, `,"audit_tail":`, tail)
	return append(b, '}'), nil
}
