package dbt_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"ghostbusters/internal/attack"
	"ghostbusters/internal/core"
	"ghostbusters/internal/core/pipeline"
	"ghostbusters/internal/dbt"
	"ghostbusters/internal/ir"
	"ghostbusters/internal/kbuild"
	"ghostbusters/internal/polybench"
	"ghostbusters/internal/riscv"
	"ghostbusters/internal/vliw"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden files with current output")

// goldenSizes keeps every Fig. 4 kernel small enough for a quick test
// while still reaching the trace-translation thresholds.
var goldenSizes = map[string]int{
	"gemm": 8, "2mm": 6, "3mm": 6, "atax": 12, "bicg": 12, "mvt": 12,
	"gesummv": 10, "gemver": 10, "syrk": 8, "syr2k": 6, "trmm": 8,
	"floyd-warshall": 6, "durbin": 10, "nussinov": 8,
	"doitgen": 5, "trisolv": 12, "jacobi-1d": 48, "jacobi-2d": 10,
	"seidel-2d": 8,
}

// corpusCell is one (bench, mode) cell of the golden corpus.
type corpusCell struct {
	Bench string
	Mode  core.Mode
	// Sum hashes, for every translated PC in TranslatedPCs order, the
	// audited DumpIR DOT, the encoded installed block and the
	// compilation's mitigation report, then the machine's audit
	// document.
	Sum [sha256.Size]byte
	// Regions holds the unmitigated IR of every translated region, in
	// the same order.
	Regions []*ir.Block
}

type corpusProgram struct {
	name string
	load func(m *dbt.Machine, cfg dbt.Config) error
}

// corpusPrograms lists every Fig. 4 bench: the 19 kernels, then the v1
// and v4 PoC applications with the secret the Fig. 4 runs use.
func corpusPrograms() ([]corpusProgram, error) {
	var out []corpusProgram
	for _, k := range polybench.All() {
		n, ok := goldenSizes[k.Name]
		if !ok {
			return nil, fmt.Errorf("no golden size for kernel %s", k.Name)
		}
		spec, err := k.Make(n)
		if err != nil {
			return nil, err
		}
		prog, err := riscv.Assemble(spec.Source)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", k.Name, err)
		}
		place, err := kbuild.Resolve(prog, spec.Arrays)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", k.Name, err)
		}
		out = append(out, corpusProgram{k.Name, func(m *dbt.Machine, _ dbt.Config) error {
			if err := m.Load(prog); err != nil {
				return err
			}
			for i, a := range spec.Arrays {
				if err := place[i].Init(m.Mem(), spec.Inputs[a.Name]); err != nil {
					return err
				}
			}
			return nil
		}})
	}
	for _, v := range []attack.Variant{attack.V1, attack.V4} {
		v := v
		out = append(out, corpusProgram{v.String(), func(m *dbt.Machine, cfg dbt.Config) error {
			src, err := attack.Source(v, cfg, attack.Params{Secret: []byte{0x5A, 0xC3}})
			if err != nil {
				return err
			}
			prog, err := riscv.Assemble(src)
			if err != nil {
				return err
			}
			return m.Load(prog)
		}})
	}
	return out, nil
}

var corpus struct {
	once  sync.Once
	cells []corpusCell
	err   error
}

// goldenCorpus runs every Fig. 4 bench in every mode with the audit on,
// once per test binary, and returns the cells bench-major.
func goldenCorpus(t *testing.T) []corpusCell {
	t.Helper()
	corpus.once.Do(func() {
		progs, err := corpusPrograms()
		if err != nil {
			corpus.err = err
			return
		}
		for _, p := range progs {
			for _, mode := range pipeline.Modes() {
				cell, err := runCorpusCell(p, mode)
				if err != nil {
					corpus.err = fmt.Errorf("%s/%s: %w", p.name, mode, err)
					return
				}
				corpus.cells = append(corpus.cells, cell)
			}
		}
	})
	if corpus.err != nil {
		t.Fatal(corpus.err)
	}
	return corpus.cells
}

func runCorpusCell(p corpusProgram, mode core.Mode) (corpusCell, error) {
	cell := corpusCell{Bench: p.name, Mode: mode}
	cfg := dbt.DefaultConfig()
	cfg.Mitigation = mode
	cfg.Audit = true
	m, err := dbt.New(cfg)
	if err != nil {
		return cell, err
	}
	defer m.Release()
	if err := p.load(m, cfg); err != nil {
		return cell, err
	}
	res, err := m.Run()
	if err != nil {
		return cell, err
	}
	if res.Exit.Code != 0 {
		return cell, fmt.Errorf("guest exit code %d", res.Exit.Code)
	}
	h := sha256.New()
	for _, pc := range m.TranslatedPCs() {
		fmt.Fprintf(h, "region %#x\n", pc)
		dot, err := m.DumpIR(pc)
		if err != nil {
			return cell, err
		}
		h.Write([]byte(dot))
		enc, err := vliw.EncodeBlock(m.BlockAt(pc))
		if err != nil {
			return cell, err
		}
		h.Write(enc)
		cr, err := m.CompileRegion(pc)
		if err != nil {
			return cell, err
		}
		fmt.Fprintf(h, "%+v\n", cr.Report)
		b, _, err := m.RegionIR(pc)
		if err != nil {
			return cell, err
		}
		cell.Regions = append(cell.Regions, b)
	}
	doc, err := json.Marshal(m.Audit().Doc())
	if err != nil {
		return cell, err
	}
	h.Write(doc)
	copy(cell.Sum[:], h.Sum(nil))
	return cell, nil
}

// TestMitigationGolden pins what every mode does to every region of the
// Fig. 4 benches: the audited IR rendering, the scheduled VLIW bytes,
// the mitigation report and the audit document. Any change to the
// mitigation layer that is meant to be behaviour-preserving must leave
// testdata/mitigation_golden.txt untouched; rewrite it with
// -update-golden only for an intended change.
func TestMitigationGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, c := range goldenCorpus(t) {
		fmt.Fprintf(&buf, "%s %s %x\n", c.Bench, c.Mode, c.Sum)
	}
	golden := filepath.Join("testdata", "mitigation_golden.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to create)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("mitigation output drifted from %s:\n got:\n%s\nwant:\n%s", golden, buf.Bytes(), want)
	}
}

func cloneBlock(b *ir.Block) *ir.Block {
	c := *b
	c.Insts = append([]ir.Inst(nil), b.Insts...)
	c.Edges = append([]ir.Edge(nil), b.Edges...)
	return &c
}

// forEachCorpusRegion calls fn with a fresh copy of every region of the
// golden corpus under every mode.
func forEachCorpusRegion(t *testing.T, fn func(name string, b *ir.Block, mode core.Mode)) {
	t.Helper()
	for _, c := range goldenCorpus(t) {
		for i, r := range c.Regions {
			for _, mode := range pipeline.Modes() {
				name := fmt.Sprintf("%s/%s region %d @%#x under %s", c.Bench, c.Mode, i, r.EntryPC, mode)
				fn(name, cloneBlock(r), mode)
			}
		}
	}
}

// The hand-built audit replay check (internal/core
// TestAuditReplaysUnderAllModes), widened to real IR: every mode's audit
// of every corpus region replays against the block it mutated, backed
// by guard edges in ghostbusters mode.
func TestCorpusAuditReplaysUnderAllModes(t *testing.T) {
	forEachCorpusRegion(t, func(name string, b *ir.Block, mode core.Mode) {
		aud := &ir.AuditReport{}
		if _, err := pipeline.Apply(b, mode, aud); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := aud.Verify(b, mode == core.ModeGhostBusters); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	})
}

// The hand-built idempotence check (internal/core/pipeline
// TestPipelinesIdempotent), widened to real IR: a second Apply changes
// neither instructions, edges nor the report's guard-edge count.
func TestCorpusPipelinesIdempotent(t *testing.T) {
	forEachCorpusRegion(t, func(name string, b *ir.Block, mode core.Mode) {
		if _, err := pipeline.Apply(b, mode, nil); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		insts := append([]ir.Inst(nil), b.Insts...)
		edges := append([]ir.Edge(nil), b.Edges...)
		rep, err := pipeline.Apply(b, mode, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(b.Insts, insts) || !reflect.DeepEqual(b.Edges, edges) {
			t.Errorf("%s: second application changed the block (%d -> %d insts, %d -> %d edges)",
				name, len(insts), len(b.Insts), len(edges), len(b.Edges))
		}
		if rep.GuardEdges != 0 {
			t.Errorf("%s: second application inserted %d guard edges", name, rep.GuardEdges)
		}
		if err := b.Verify(); err != nil {
			t.Errorf("%s: mitigated block fails Verify: %v", name, err)
		}
	})
}
