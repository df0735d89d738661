package api

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
)

// HTTP plumbing shared by every tier that serves this contract (the
// engine server and the semproxy edge), so a response rendered by either
// is byte-identical for the same outcome.

// MetricsPath serves the Prometheus exposition on every daemon.
// Unversioned on purpose: it is operational surface, not part of the /v1
// wire contract.
const MetricsPath = "/metrics"

// WriteJSON writes v as indented JSON with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // the client is gone if this fails
}

// WriteError writes err as the error envelope under its status.
func WriteError(w http.ResponseWriter, err *Error) {
	WriteJSON(w, err.Status, ErrorEnvelope{Error: *err})
}

// CheckMethod reports whether r uses one of the allowed methods, and
// otherwise writes a 405 envelope naming the canonical path, so a legacy
// alias and its /v1 twin answer byte-identically.
func CheckMethod(w http.ResponseWriter, r *http.Request, allowed ...string) bool {
	for _, m := range allowed {
		if r.Method == m {
			return true
		}
	}
	w.Header().Set("Allow", strings.Join(allowed, ", "))
	WriteError(w, Errorf(http.StatusMethodNotAllowed, CodeMethodNotAllowed,
		"method %s not allowed on %s", r.Method, CanonicalPath(r.URL.Path)))
	return false
}

// DecodeStrict decodes one JSON object from r's body into v, rejecting
// unknown fields, trailing data and bodies over MaxBodyBytes with
// CodeBadRequest errors.
func DecodeStrict(w http.ResponseWriter, r *http.Request, v any) *Error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return Errorf(http.StatusBadRequest, CodeBadRequest, "request body exceeds %d bytes", MaxBodyBytes)
		}
		return Errorf(http.StatusBadRequest, CodeBadRequest, "malformed JSON: %v", err)
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return Errorf(http.StatusBadRequest, CodeBadRequest, "trailing data after JSON body")
	}
	return nil
}

// knownPaths bounds metric label cardinality: canonical /v1 paths and
// MetricsPath keep their names.
var knownPaths = func() map[string]bool {
	m := map[string]bool{MetricsPath: true}
	for _, p := range Paths() {
		m[p] = true
	}
	return m
}()

// PathLabel maps a request path to its metric label: the canonical path
// of a known endpoint, "other" for everything else (typos, scans).
func PathLabel(p string) string {
	if c := CanonicalPath(p); knownPaths[c] {
		return c
	}
	return "other"
}
