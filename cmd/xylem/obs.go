package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"github.com/xylem-sim/xylem/internal/obs"
)

// metricsServer is the process-wide `-metrics-addr` listener, closed by
// stopMetrics at exit. All announcements go to stderr so stdout carries
// exactly the same table bytes with metrics on or off.
var metricsServer *obs.Server

// startMetrics starts the opt-in metrics endpoint and returns the
// registry to wire through exp.Options.Obs. addr "" means disabled.
func startMetrics(addr string) (*obs.Registry, error) {
	if addr == "" {
		return nil, nil
	}
	reg := obs.New()
	srv, err := obs.Serve(addr, reg)
	if err != nil {
		return nil, fmt.Errorf("metrics listener: %w", err)
	}
	metricsServer = srv
	fmt.Fprintf(os.Stderr, "xylem: serving metrics on http://%s/metrics (also /metrics.json, /trace.json)\n", srv.Addr)
	return reg, nil
}

// stopMetrics shuts the metrics listener down gracefully, if one was
// started: an in-flight scrape at process exit finishes instead of
// being cut mid-response.
func stopMetrics() {
	if metricsServer != nil {
		_ = metricsServer.Shutdown()
		metricsServer = nil
	}
}

// fetchTrace pulls /trace.json from a running xylem process's metrics
// endpoint and pretty-prints the retained span events.
func fetchTrace(base string, w io.Writer) error {
	url := strings.TrimSuffix(base, "/")
	if !strings.HasPrefix(url, "http://") && !strings.HasPrefix(url, "https://") {
		url = "http://" + url
	}
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(url + "/trace.json")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("trace endpoint: %s", resp.Status)
	}
	var dump obs.TraceDump
	if err := json.NewDecoder(resp.Body).Decode(&dump); err != nil {
		return fmt.Errorf("trace endpoint: %w", err)
	}
	fmt.Fprintf(w, "# %d events recorded, %d retained\n", dump.Total, len(dump.Events))
	for _, ev := range dump.Events {
		fmt.Fprintf(w, "%8d  %-24s %12.3fms", ev.Seq, ev.Name, float64(ev.DurNs)/1e6)
		for _, a := range ev.Attrs {
			fmt.Fprintf(w, "  %s=%g", a.Key, a.Val)
		}
		fmt.Fprintln(w)
	}
	return nil
}
