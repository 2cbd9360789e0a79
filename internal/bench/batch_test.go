package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestBatchRecord runs the fused-evaluation benchmark harness at a small
// scale and checks the record carries the acceptance signals: fused group
// advance beats independent per-session advance, coalesced sweeps beat
// direct per-request sweeps, and the single-request path stays allocation
// free.
func TestBatchRecord(t *testing.T) {
	if testing.Short() {
		t.Skip("runs micro-benchmarks")
	}
	defer func(s, c, cl int) { batchSessions, batchChunk, batchClients = s, c, cl }(batchSessions, batchChunk, batchClients)
	batchSessions = 32
	batchChunk = 32
	batchClients = 8

	res, err := Batch(Config{Scale: 0.1})
	if err != nil {
		t.Fatalf("Batch: %v", err)
	}
	if res.IndependentStepsPerSec <= 0 || res.FusedStepsPerSec <= 0 {
		t.Fatalf("empty group-advance measurement: %+v", res)
	}
	t.Logf("group advance %.2f×, coalesced sweeps %.2f×, kernel %d allocs/op",
		res.GroupSpeedup, res.SweepSpeedup, res.KernelAllocsPerOp)
	if res.GroupSpeedup <= 1 {
		t.Errorf("fused group advance %.2f× independent, want >1×", res.GroupSpeedup)
	}
	if res.DirectSweepsPerSec <= 0 || res.CoalescedSweepsPerSec <= 0 {
		t.Fatalf("empty sweep measurement: %+v", res)
	}
	if res.SweepSpeedup <= 1 {
		t.Errorf("coalesced sweeps %.2f× direct, want >1×", res.SweepSpeedup)
	}
	if res.KernelAllocsPerOp != 0 {
		t.Errorf("warm sweep kernel allocates %d/op, want 0", res.KernelAllocsPerOp)
	}

	path := filepath.Join(t.TempDir(), "BENCH_batch.json")
	if err := res.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back BatchResult
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("record is not valid JSON: %v", err)
	}
	if back.GroupSpeedup != res.GroupSpeedup {
		t.Fatal("record round-trip lost the group speedup")
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if buf.Len() == 0 {
		t.Fatal("Render produced nothing")
	}
}
