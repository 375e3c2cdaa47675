package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"mloc/internal/client"
	"mloc/internal/grid"
	"mloc/internal/obs"
	"mloc/internal/server"
)

// remoteClient is the shared HTTP plumbing of the remote subcommands.
type remoteClient struct {
	base string
	http *http.Client
}

func newRemoteClient(addr string) (*remoteClient, error) {
	if addr == "" {
		return nil, fmt.Errorf("-remote address is required (e.g. -remote 127.0.0.1:8080)")
	}
	return &remoteClient{
		base: client.BaseURL(addr),
		http: &http.Client{Timeout: 60 * time.Second},
	}, nil
}

// maxRetryAfter caps how long the client sleeps on a Retry-After hint,
// so a miscalibrated server cannot park the CLI for minutes.
const maxRetryAfter = 5 * time.Second

// maxResponseBytes caps every response the CLI decodes: a result
// payload may be large, but a misbehaving or malicious server cannot
// OOM the CLI.
const maxResponseBytes = client.MaxResultBytes

// call sends one request and decodes the 200 answer into out. When the
// server sheds load (429 or 503) with a usable Retry-After header, it
// sleeps the hinted duration (capped at maxRetryAfter) and retries
// exactly once; the payload bytes are re-sendable, so the retry repeats
// the identical request. Anything else — including sheds without the
// header — is returned as-is; one bounded retry rides out a drain or a
// momentary queue spike without turning the CLI into a retry storm.
func (c *remoteClient) call(method, path string, payload []byte, out any) error {
	send := func() error {
		req, err := client.NewRequest(context.Background(), method, c.base+path, payload)
		if err != nil {
			return err
		}
		return client.JSON(c.http, req, maxResponseBytes, out)
	}
	err := send()
	var shed *client.StatusError
	if !errors.As(err, &shed) ||
		(shed.Code != http.StatusTooManyRequests && shed.Code != http.StatusServiceUnavailable) {
		return err
	}
	wait, ok := parseRetryAfter(shed.RetryAfter)
	if !ok {
		return err
	}
	fmt.Fprintf(os.Stderr, "mlocctl: server busy (%s), retrying once in %s\n", shed.Status, wait)
	time.Sleep(wait)
	return send()
}

// parseRetryAfter handles the delta-seconds form of the header; HTTP
// dates and garbage report unusable.
func parseRetryAfter(v string) (time.Duration, bool) {
	secs, err := strconv.Atoi(strings.TrimSpace(v))
	if err != nil || secs < 0 {
		return 0, false
	}
	d := time.Duration(secs) * time.Second
	if d > maxRetryAfter {
		d = maxRetryAfter
	}
	return d, true
}

// getJSON decodes a GET endpoint into out.
func (c *remoteClient) getJSON(path string, out any) error {
	return c.call(http.MethodGet, path, nil, out)
}

// postJSON posts a payload and decodes the response into out.
func (c *remoteClient) postJSON(path string, payload []byte, out any) error {
	return c.call(http.MethodPost, path, payload, out)
}

// remoteShape asks /vars for the variable's grid shape so matches can
// be printed as coordinates, matching `mlocctl run` output.
func (c *remoteClient) remoteShape(varName string) (grid.Shape, error) {
	var vars []server.VarWire
	if err := c.getJSON("/vars", &vars); err != nil {
		return nil, err
	}
	for _, v := range vars {
		if v.Var == varName {
			return grid.Shape(v.Shape), nil
		}
	}
	return nil, fmt.Errorf("server does not serve variable %q", varName)
}

func cmdQuery(args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	remote := fs.String("remote", "", "mlocd address, e.g. 127.0.0.1:8080")
	varName := fs.String("var", "", "variable to query (required)")
	vcStr := fs.String("vc", "", "value constraint lo:hi")
	scStr := fs.String("sc", "", "spatial constraint a:b,c:d per dimension")
	plod := fs.Int("plod", 0, "PLoD level 1-7 (0 = full precision)")
	indexOnly := fs.Bool("index-only", false, "return positions only")
	ranks := fs.Int("ranks", 0, "parallel ranks (0 = server default)")
	maxPrint := fs.Int("print", 5, "matches to print")
	if err := fs.Parse(args); err != nil {
		return err
	}
	client, err := newRemoteClient(*remote)
	if err != nil {
		return err
	}
	if *varName == "" {
		return fmt.Errorf("query: -var is required")
	}

	// Assemble the wire request, reusing the local parsers so the CLI
	// accepts identical constraint syntax for local and remote queries.
	wire := server.QueryWire{Var: *varName, PLoD: *plod, IndexOnly: *indexOnly, Ranks: *ranks}
	if *vcStr != "" {
		vc, err := parseVC(*vcStr)
		if err != nil {
			return err
		}
		wire.VC = &server.VCWire{Min: &vc.Min, Max: &vc.Max}
	}
	if *scStr != "" {
		dims := strings.Count(*scStr, ",") + 1
		sc, err := parseSC(*scStr, dims)
		if err != nil {
			return err
		}
		wire.SC = &server.SCWire{Lo: sc.Lo, Hi: sc.Hi}
	}
	payload, err := json.Marshal(&wire)
	if err != nil {
		return err
	}

	var res struct {
		server.ResultWire
		// Cluster-only fields; absent (zero) on single-node mlocd.
		Degraded bool `json:"degraded"`
		Shards   []struct {
			Node  string `json:"node"`
			Rows  string `json:"rows"`
			OK    bool   `json:"ok"`
			Error string `json:"error"`
		} `json:"shards"`
	}
	if err := client.postJSON("/query", payload, &res); err != nil {
		return err
	}

	shape, err := client.remoteShape(*varName)
	if err != nil {
		return err
	}
	fmt.Printf("query: %d matches, %d bins touched, %d blocks read, %.2f MB read, %d cache hits\n",
		res.MatchesTotal, res.BinsAccessed, res.BlocksRead, float64(res.BytesRead)/1e6, res.CacheHits)
	if res.BinsPruned > 0 || res.BinsCovered > 0 {
		fmt.Printf("  pruning: %d bins pruned, %d covered via %d index nodes\n",
			res.BinsPruned, res.BinsCovered, res.IndexNodesRead)
	}
	if res.Degraded {
		fmt.Printf("  degraded: PARTIAL RESULT — some shards failed:\n")
		for _, sh := range res.Shards {
			if !sh.OK {
				fmt.Printf("    shard rows %s on %s: %s\n", sh.Rows, sh.Node, sh.Error)
			}
		}
	}
	if res.TraceID != 0 {
		fmt.Printf("  trace: %d (inspect with `mlocctl trace -remote %s -id %d`)\n",
			res.TraceID, *remote, res.TraceID)
	}
	fmt.Printf("  time: io %.4fs, decompress %.4fs, reconstruct %.4fs, total %.4fs (virtual)\n",
		res.Time.IO, res.Time.Decompress, res.Time.Reconstruct, res.Time.Total)
	for i, m := range res.Matches {
		if i >= *maxPrint {
			fmt.Printf("  ... and %d more\n", res.MatchesTotal-*maxPrint)
			break
		}
		// Coords panics on out-of-range indexes; a corrupt or hostile
		// server must not crash the CLI.
		if m.Index < 0 || m.Index >= shape.Elems() {
			fmt.Printf("  match at invalid index %d (server bug?)\n", m.Index)
			continue
		}
		coords := shape.Coords(m.Index, nil)
		if *indexOnly {
			fmt.Printf("  match at %v\n", coords)
		} else {
			fmt.Printf("  match at %v = %g\n", coords, m.Value)
		}
	}
	if res.Truncated {
		fmt.Printf("  (response truncated to %d of %d matches)\n", len(res.Matches), res.MatchesTotal)
	}
	return nil
}

// cmdTrace lists or renders the span trees mlocd retains for recent
// queries and builds (GET /debug/traces).
func cmdTrace(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	remote := fs.String("remote", "", "mlocd address, e.g. 127.0.0.1:8080")
	id := fs.Uint64("id", 0, "trace id to render in full (0 = one-line summary per retained trace)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	client, err := newRemoteClient(*remote)
	if err != nil {
		return err
	}
	if *id != 0 {
		var td obs.TraceDump
		if err := client.getJSON(fmt.Sprintf("/debug/traces?id=%d", *id), &td); err != nil {
			return err
		}
		return td.Render(os.Stdout)
	}
	var all []obs.TraceDump
	if err := client.getJSON("/debug/traces", &all); err != nil {
		return err
	}
	if len(all) == 0 {
		fmt.Println("no traces retained")
		return nil
	}
	for _, td := range all {
		wall := 0.0
		if td.Root != nil {
			wall = td.Root.WallMS
		}
		fmt.Printf("trace %d %q: %d spans, %.3fms wall\n", td.ID, td.Name, td.Spans, wall)
	}
	fmt.Printf("(render one with -id N)\n")
	return nil
}

// cmdQuerylog prints the always-on per-query log a data node or router
// retains (GET /debug/querylog), newest first. The filter flags are
// passed through verbatim; the server validates them.
func cmdQuerylog(args []string) error {
	fs := flag.NewFlagSet("querylog", flag.ExitOnError)
	remote := fs.String("remote", "", "mlocd address, e.g. 127.0.0.1:8080")
	store := fs.String("store", "", "only records for this store mode (col, iso, isa)")
	varName := fs.String("var", "", "only records for this variable")
	minLatency := fs.String("min-latency", "", "only records at least this slow (wall clock), e.g. 250ms")
	if err := fs.Parse(args); err != nil {
		return err
	}
	client, err := newRemoteClient(*remote)
	if err != nil {
		return err
	}
	params := url.Values{}
	if *store != "" {
		params.Set("store", *store)
	}
	if *varName != "" {
		params.Set("var", *varName)
	}
	if *minLatency != "" {
		params.Set("min_latency", *minLatency)
	}
	path := "/debug/querylog"
	if len(params) > 0 {
		path += "?" + params.Encode()
	}
	var recs []obs.QueryRecord
	if err := client.getJSON(path, &recs); err != nil {
		return err
	}
	if len(recs) == 0 {
		fmt.Println("no query records retained (or none match the filter)")
		return nil
	}
	for _, r := range recs {
		line := fmt.Sprintf("#%d %s var=%s store=%s sel=%s %s wall=%.3fms virt=%.6fs",
			r.Seq, time.UnixMilli(r.UnixMS).UTC().Format(time.RFC3339),
			r.Var, r.Store, r.Selectivity, r.Outcome, r.WallMS, r.VirtS)
		line += fmt.Sprintf(" matches=%d pruned=%d covered=%d cache=%d/%d bytes=%d queue=%.3fms",
			r.Matches, r.BinsPruned, r.BinsCovered, r.CacheHits, r.CacheHits+r.CacheMisses,
			r.BytesDecoded, r.QueueWaitMS)
		if r.Shards > 0 {
			line += fmt.Sprintf(" shards=%d", r.Shards)
		}
		if r.Degraded {
			line += " DEGRADED"
		}
		if r.TraceID != 0 {
			line += fmt.Sprintf(" trace=%d", r.TraceID)
		}
		fmt.Println(line)
	}
	return nil
}

func cmdStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	remote := fs.String("remote", "", "mlocd address, e.g. 127.0.0.1:8080")
	if err := fs.Parse(args); err != nil {
		return err
	}
	client, err := newRemoteClient(*remote)
	if err != nil {
		return err
	}
	var stats map[string]int64
	if err := client.getJSON("/stats", &stats); err != nil {
		return err
	}
	keys := make([]string, 0, len(stats))
	for k := range stats {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("%s %d\n", k, stats[k])
	}
	return nil
}
