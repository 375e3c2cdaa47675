// Package labelcard is a taintflow fixture where untrusted strings reach
// metric labels and metric names: every distinct value materializes a
// new time series, so attacker-chosen labels are a memory leak.
package labelcard

import (
	"net/http"
	"strconv"

	"mloc/internal/obs"
)

func handler(reg *obs.Registry, r *http.Request) {
	v := r.URL.Query().Get("var")
	reg.Counter("mloc_queries_total", "Queries by variable.", obs.L("var", v)).Inc() // want `metric label or name v derives from untrusted input`
	reg.Counter("mloc_requests_total", "Requests.", obs.L("endpoint", "query")).Inc()
}

func finiteSet(reg *obs.Registry) {
	for _, ep := range []string{"query", "stats", "vars"} {
		reg.Counter("mloc_endpoint_total", "Requests by endpoint.", obs.L("endpoint", ep)).Inc()
	}
	for i := 0; i < 4; i++ {
		reg.GaugeFunc("mloc_worker_busy", "Worker busy flag.", func() float64 { return 0 }, obs.L("worker", strconv.Itoa(i)))
	}
}

// countFor owns the label sink; the untrusted value arrives via its
// parameter, so the finding at the caller names this hop.
func countFor(reg *obs.Registry, val string) {
	reg.Counter("mloc_tenant_total", "Requests by tenant.", obs.L("tenant", val)).Inc()
}

func crossFunc(reg *obs.Registry, r *http.Request) {
	countFor(reg, r.Header.Get("X-Tenant")) // want `metric label or name .* derives from untrusted input \(via countFor\)`
}

func dynamicName(reg *obs.Registry, r *http.Request) {
	name := "mloc_" + r.URL.Query().Get("metric")
	reg.Counter(name, "Dynamic metric.").Inc() // want `metric label or name name derives from untrusted input`
}

func suppressed(reg *obs.Registry, r *http.Request) {
	id := r.Header.Get("X-Node")
	reg.Counter("mloc_node_seen_total", "Requests by node.", obs.L("node", id)).Inc() //mlocvet:ignore taintflow -- fixture: node ids are validated against the cluster roster upstream
}
