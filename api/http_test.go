package api

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestCheckMethodWritesEnvelope: a disallowed method gets a 405 envelope
// with an Allow header and the canonical path in its message, whichever
// alias was hit; an allowed method writes nothing.
func TestCheckMethodWritesEnvelope(t *testing.T) {
	for _, path := range []string{PathQuery, LegacyPath(PathQuery)} {
		rec := httptest.NewRecorder()
		if !CheckMethod(rec, httptest.NewRequest(http.MethodGet, path, nil), http.MethodGet, http.MethodPost) || rec.Body.Len() != 0 {
			t.Fatalf("%s: GET refused or wrote %q", path, rec.Body.String())
		}
		rec = httptest.NewRecorder()
		if CheckMethod(rec, httptest.NewRequest(http.MethodPut, path, nil), http.MethodGet, http.MethodPost) {
			t.Fatalf("%s: PUT allowed", path)
		}
		var env ErrorEnvelope
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
			t.Fatal(err)
		}
		if rec.Code != http.StatusMethodNotAllowed || rec.Header().Get("Allow") != "GET, POST" ||
			rec.Header().Get("Content-Type") != "application/json" ||
			env.Error.Code != CodeMethodNotAllowed || env.Error.Message != "method PUT not allowed on "+PathQuery {
			t.Fatalf("%s: %d %v %q", path, rec.Code, rec.Header(), rec.Body.String())
		}
	}
}

// TestDecodeStrict: one JSON object decodes; unknown fields, trailing
// data, malformed JSON and oversized bodies are bad_request errors.
func TestDecodeStrict(t *testing.T) {
	for _, tc := range []struct {
		body, wantMsg string
	}{
		{`{"class":"c","query":"q"}`, ""},
		{`{"class":"c","bogus":1}`, "malformed JSON"},
		{`{"class":"c"} {}`, "trailing data"},
		{`{"class":`, "malformed JSON"},
		{`{"class":"` + strings.Repeat("x", MaxBodyBytes) + `"}`, "request body exceeds"},
	} {
		var req QueryRequest
		err := DecodeStrict(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, PathQuery, strings.NewReader(tc.body)), &req)
		if tc.wantMsg == "" {
			if err != nil || req.Class != "c" || req.Query != "q" {
				t.Fatalf("valid body: err %v, decoded %+v", err, req)
			}
			continue
		}
		if err == nil || err.Status != http.StatusBadRequest || err.Code != CodeBadRequest || !strings.Contains(err.Message, tc.wantMsg) {
			t.Fatalf("body %.40q: err %v, want bad_request %q", tc.body, err, tc.wantMsg)
		}
	}
}

// TestPathLabelIsBounded: known endpoints label under their canonical
// path, everything else collapses to "other".
func TestPathLabelIsBounded(t *testing.T) {
	for in, want := range map[string]string{
		PathQuery:             PathQuery,
		LegacyPath(PathStats): PathStats,
		MetricsPath:           MetricsPath,
		"/v1/nope":            "other",
		"/wp-admin":           "other",
	} {
		if got := PathLabel(in); got != want {
			t.Fatalf("PathLabel(%q) = %q, want %q", in, got, want)
		}
	}
}
