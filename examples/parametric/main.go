// Example parametric demonstrates Δ-scale serving: the persistent ROM store
// as a parametric model library. Three anchor reductions of ckt1 are stored
// at neighboring Scale points; a client then sweeps a continuum of scales
// between them, and every intermediate model is assembled by pole-matched
// modal interpolation — POST /interp — in microseconds, with zero further
// reductions (asserted against /healthz build counters). One scale is also
// requested with an impossibly tight error budget to show the self-checked
// fallback: the server reduces that one for real rather than serve an
// out-of-budget interpolant.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/serve"
	"repro/internal/store"
)

// The anchors sit inside one geometric plateau of ckt1 (identical grid
// topology, continuously scaled electricals) — the regime where Δ-scale
// interpolation is well-posed. See internal/param.
var anchors = []float64{0.236, 0.241, 0.246}

func main() {
	dir, err := os.MkdirTemp("", "pgserve-parametric-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	base, stop := startServer(dir)
	defer stop()
	fmt.Printf("serving on %s (store %s)\n\n", base, dir)

	// ---- Anchor reductions: the only real reductions in this run. ----
	for _, s := range anchors {
		t0 := time.Now()
		var info modelInfo
		post(base+"/reduce", map[string]any{"benchmark": "ckt1", "scale": s}, &info)
		fmt.Printf("anchor %-14s scale %-5g  order %d  reduced in %v\n",
			info.ID, s, info.Order, time.Since(t0).Round(time.Millisecond))
	}

	// ---- Δ-scale continuum: interpolated, never reduced. ----
	fmt.Printf("\nscale continuum between the anchors (POST /interp):\n")
	fmt.Printf("%-8s %-10s %-12s %-12s %s\n", "scale", "source", "latency", "check err", "anchors")
	for scale := 0.2372; scale < 0.2455; scale += 0.0012 {
		t0 := time.Now()
		var info interpInfo
		post(base+"/interp", map[string]any{"benchmark": "ckt1", "scale": scale}, &info)
		lat := time.Since(t0).Round(10 * time.Microsecond)
		fmt.Printf("%-8.4f %-10s %-12v %-12.2e %v\n",
			scale, info.Source, lat, info.Interp.CheckErr, info.Interp.Scales)

		// Each interpolant is a first-class model: sweep it by id.
		var sweep struct {
			Points []struct{ Omega, Mag float64 } `json:"points"`
		}
		post(base+"/sweep", map[string]any{"model": info.ID, "points": 40}, &sweep)
		if len(sweep.Points) != 40 {
			log.Fatalf("sweep on %s returned %d points", info.ID, len(sweep.Points))
		}
	}

	// /eval can resolve benchmark+scale directly — no /interp round trip.
	var eval struct {
		Points []struct {
			Omega float64 `json:"omega"`
		} `json:"points"`
	}
	post(base+"/eval", map[string]any{"benchmark": "ckt1", "scale": 0.2399,
		"omegas": []float64{1e8, 1e9, 1e10}}, &eval)
	fmt.Printf("\n/eval at unstored scale 0.2399: %d transfer matrices returned\n", len(eval.Points))

	// ---- Fallback: a budget no interpolant can meet forces a reduction. ----
	t0 := time.Now()
	var strict interpInfo
	post(base+"/interp", map[string]any{"benchmark": "ckt1", "scale": 0.2441, "tol": 1e-9}, &strict)
	fmt.Printf("tol=1e-9 at scale 0.2441: source=%s in %v (self-check failed the budget, reduced for real)\n",
		strict.Source, time.Since(t0).Round(time.Millisecond))

	// ---- The ledger: anchors + 1 fallback reductions, nothing else. ----
	var health struct {
		Stats struct {
			Repo struct {
				Builds          int64 `json:"builds"`
				InterpServed    int64 `json:"interp_served"`
				InterpFallbacks int64 `json:"interp_fallbacks"`
				InterpModels    int   `json:"interp_models"`
			} `json:"repo"`
		} `json:"stats"`
	}
	get(base+"/healthz", &health)
	r := health.Stats.Repo
	fmt.Printf("\nreductions: %d (3 anchors + %d fallback); interpolation served %d Δ-scale requests, %d interpolants resident\n",
		r.Builds, r.InterpFallbacks, r.InterpServed, r.InterpModels)
	if want := int64(len(anchors)) + r.InterpFallbacks; r.Builds != want {
		log.Fatalf("expected %d reductions, measured %d — interpolation leaked a build", want, r.Builds)
	}
}

type modelInfo struct {
	ID     string `json:"id"`
	Order  int    `json:"order"`
	Source string `json:"source"`
}

type interpInfo struct {
	ID     string `json:"id"`
	Source string `json:"source"`
	Interp struct {
		Scales   [2]float64 `json:"scales"`
		CheckErr float64    `json:"check_err"`
	} `json:"interp"`
}

func startServer(dir string) (base string, stop func()) {
	st, err := store.Open(dir)
	if err != nil {
		log.Fatal(err)
	}
	srv := serve.New(serve.Config{Store: st})
	if _, err := srv.Repo().Preload(); err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	return "http://" + ln.Addr().String(), func() {
		hs.Close()
		srv.Close()
	}
}

func post(url string, body, out any) {
	buf, _ := json.Marshal(body)
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		log.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e map[string]string
		json.NewDecoder(resp.Body).Decode(&e)
		log.Fatalf("POST %s: status %d: %s", url, resp.StatusCode, e["error"])
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		log.Fatalf("POST %s: decode: %v", url, err)
	}
}

func get(url string, out any) {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		log.Fatalf("GET %s: decode: %v", url, err)
	}
}
