package harness

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestExportDocumentGolden locks the shape and content of the -json
// document (schema ExportSchema). Simulations are pure
// functions of their specs, so at a fixed scale the document is
// deterministic except for wall time, which is zeroed before comparison.
// Regenerate with -update after an intentional simulator change.
func TestExportDocumentGolden(t *testing.T) {
	ws := pick(t, "vpr")
	e := NewEngine(small, 4)
	doc := e.Export(ws)
	doc.Engine.SimWallMS = 0

	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join("testdata", "export_vpr.golden.json")
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if !bytes.Equal(want, buf.Bytes()) {
		t.Errorf("export document diverges from golden\n--- want ---\n%s\n--- got ---\n%s", want, buf.Bytes())
	}
}

// TestExportDocumentShape checks the structural invariants any consumer
// relies on, independent of golden values: the schema tag, one row (or
// column) per workload in every table, and populated engine counters.
func TestExportDocumentShape(t *testing.T) {
	ws := pick(t, "vpr", "mcf")
	e := NewEngine(small, 4)
	doc := e.Export(ws)

	if doc.Schema != ExportSchema {
		t.Errorf("schema = %q, want %q", doc.Schema, ExportSchema)
	}
	if doc.Scale != small.Scale {
		t.Errorf("scale = %v, want %v", doc.Scale, small.Scale)
	}
	if len(doc.Workloads) != 2 || doc.Workloads[0] != "vpr" || doc.Workloads[1] != "mcf" {
		t.Errorf("workloads = %v", doc.Workloads)
	}
	if doc.Table1 == "" {
		t.Error("table1 text missing")
	}
	for name, n := range map[string]int{
		"table2":     len(doc.Table2),
		"figure1":    len(doc.Figure1),
		"table3":     len(doc.Table3),
		"figure11":   len(doc.Figure11),
		"table4":     len(doc.Table4),
		"figurePred": len(doc.FigurePred),
		"figureAuto": len(doc.FigureAuto),
	} {
		if n != len(ws) {
			t.Errorf("%s has %d rows, want %d", name, n, len(ws))
		}
	}
	// figureMP is per co-schedule, not per workload: 2 workloads form one
	// pair, each side with a per-program row.
	if len(doc.FigureMP) != 1 || len(doc.FigureMP[0].Programs) != 2 {
		t.Errorf("figureMP = %+v, want one 2-program co-schedule", doc.FigureMP)
	}
	if doc.Engine.Simulations == 0 || doc.Engine.SimInsts == 0 {
		t.Errorf("engine counters not populated: %+v", doc.Engine)
	}

	// The whole document must round-trip through JSON: a consumer that
	// decodes and re-encodes it sees identical bytes.
	b, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	var back Export
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	b2, err := json.Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, b2) {
		t.Error("export document does not round-trip through JSON")
	}
}
