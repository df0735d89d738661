package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
	"regexp"

	"golang.org/x/tools/go/analysis"
)

// MetricName keeps the /metrics exposition greppable and its
// cardinality bounded, mechanizing the PR-9 registry conventions:
// every name passed to an internal/obs registration (Counter, Gauge,
// Histogram, RegisterGaugeFunc) must be a compile-time constant
// semprox_-prefixed snake_case string — never a value computed at
// runtime, which dashboards and alerts could not be written against —
// and no obs.L label value may derive from the raw request
// (url.URL fields/methods, Request.URL/RequestURI/Host), because one
// crawler walking unbounded paths would mint an unbounded family of
// time series. Paths must go through a bounded mapping (api.PathLabel,
// which both daemons install as obs.HTTPOptions.PathLabel) before they
// become label values.
var MetricName = &analysis.Analyzer{
	Name: "metricname",
	Doc: "report non-literal or non-semprox_-prefixed metric names at internal/obs registration " +
		"sites and unbounded (raw request derived) label values",
	Run: runMetricName,
}

// metricNameRe is the accepted shape: semprox_-prefixed snake_case.
var metricNameRe = regexp.MustCompile(`^semprox_[a-z0-9]+(_[a-z0-9]+)*$`)

// registrars are the *obs.Registry methods whose first argument is a
// metric family name.
var registrars = map[string]bool{
	"(*" + pkgObs + ".Registry).Counter":           true,
	"(*" + pkgObs + ".Registry).Gauge":             true,
	"(*" + pkgObs + ".Registry).Histogram":         true,
	"(*" + pkgObs + ".Registry).RegisterGaugeFunc": true,
}

func runMetricName(pass *analysis.Pass) (any, error) {
	sup := newSuppressor(pass)
	for _, file := range pass.Files {
		if isTestFile(pass, file) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			switch name := calleeName(pass, call); {
			case registrars[name]:
				checkMetricNameArg(pass, sup, call)
			case name == pkgObs+".L" && len(call.Args) == 2:
				checkLabelValue(pass, sup, call.Args[1])
			}
			return true
		})
	}
	return nil, nil
}

// checkMetricNameArg validates the name argument of a registration call:
// it must carry a constant string value (literal or named constant) of
// the semprox_ snake_case shape.
func checkMetricNameArg(pass *analysis.Pass, sup *suppressor, call *ast.CallExpr) {
	if len(call.Args) == 0 {
		return
	}
	arg := call.Args[0]
	tv := pass.TypesInfo.Types[arg]
	if tv.Value == nil || tv.Value.Kind() != constant.String {
		sup.report(arg.Pos(),
			"metric name must be a compile-time constant string so the exposition is greppable at rest; got a runtime value")
		return
	}
	name := constant.StringVal(tv.Value)
	if !metricNameRe.MatchString(name) {
		sup.report(arg.Pos(),
			"metric name %q must be a semprox_-prefixed snake_case literal (e.g. semprox_wal_appends_total)", name)
	}
}

// requestDerived reports whether expr reaches into the raw request:
// any field or method of net/url.URL, or the unbounded fields of
// net/http.Request. Such a value is unbounded-cardinality by
// construction and must be mapped through a bounded table first.
func checkLabelValue(pass *analysis.Pass, sup *suppressor, value ast.Expr) {
	ast.Inspect(value, func(n ast.Node) bool {
		se, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		recv := recvNamed(pass, se)
		if recv == nil {
			return true
		}
		pkg := recv.Obj().Pkg()
		if pkg == nil {
			return true
		}
		switch {
		case pkg.Path() == "net/url" && recv.Obj().Name() == "URL":
			sup.report(value.Pos(),
				"label value derives from the raw request URL (.%s): metric labels must be cardinality-bounded — map the path through a bounded table first", se.Sel.Name)
			return false
		case pkg.Path() == "net/http" && recv.Obj().Name() == "Request" && unboundedRequestField[se.Sel.Name]:
			sup.report(value.Pos(),
				"label value derives from the raw request (.%s): metric labels must be cardinality-bounded — map the path through a bounded table first", se.Sel.Name)
			return false
		}
		return true
	})
}

// unboundedRequestField lists the http.Request members whose value space
// is caller-controlled and unbounded. Method is deliberately absent: the
// verb set is bounded.
var unboundedRequestField = map[string]bool{
	"URL":        true,
	"RequestURI": true,
	"Host":       true,
	"Header":     true,
}

// recvNamed resolves the receiver type of a selector to its named type,
// unwrapping one level of pointer, or nil when the selector is not a
// field/method selection on a named type.
func recvNamed(pass *analysis.Pass, se *ast.SelectorExpr) *types.Named {
	sel := pass.TypesInfo.Selections[se]
	if sel == nil {
		return nil
	}
	t := sel.Recv()
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}
