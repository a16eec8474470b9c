package harness

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"repro/internal/bpred"
	"repro/internal/oracle"
)

// RunFlags binds the command-line options that cmd/experiments and
// cmd/slicesim share: the warm-checkpoint store, the warm-up mode, the
// predictors and the differential oracle.
type RunFlags struct {
	CheckpointDir string
	BPred, IPred  string
	Oracle        bool
	OracleEvery   int64
	OracleReport  string
	// Mode is the parsed -warm value, valid after Resolve.
	Mode WarmMode

	prog string
	warm string
}

// BindRunFlags declares the shared flags on fs. prog prefixes the
// messages WriteOracleReport prints.
func BindRunFlags(fs *flag.FlagSet, prog string) *RunFlags {
	f := &RunFlags{prog: prog}
	fs.StringVar(&f.CheckpointDir, "checkpoint-dir", "", "persist warm-up checkpoints in this directory (created if missing)")
	fs.StringVar(&f.warm, "warm", "detailed", "warm-up mode: detailed|functional")
	fs.StringVar(&f.BPred, "bpred", "", "direction predictor, name[:params] (e.g. yags, value, gshare:4096,10)")
	fs.StringVar(&f.IPred, "ipred", "", "indirect target predictor, name[:params] (e.g. cascaded)")
	fs.BoolVar(&f.Oracle, "oracle", false, "validate runs against the functional model (differential oracle)")
	fs.Int64Var(&f.OracleEvery, "oracle-every", 0, "oracle invariant-sweep period in cycles (0 = default, <0 disables)")
	fs.StringVar(&f.OracleReport, "oracle-report", "", "write oracle divergence reports (JSON) to this file on failure")
	return f
}

// Resolve checks the parsed values up front, so a typo fails with the
// registry's name listing instead of deep inside a run, and sets Mode.
func (f *RunFlags) Resolve() error {
	if _, err := bpred.NewDir(f.BPred); err != nil {
		return err
	}
	if _, err := bpred.NewIndirect(f.IPred); err != nil {
		return err
	}
	var err error
	f.Mode, err = ParseWarmMode(f.warm)
	return err
}

// Checkpointer builds the warm-checkpoint cache the flags select.
func (f *RunFlags) Checkpointer() *Checkpointer {
	return NewCheckpointer(f.CheckpointDir, f.Mode)
}

// OracleOptions returns the differential-oracle settings the flags select.
func (f *RunFlags) OracleOptions() OracleOptions {
	return OracleOptions{Enabled: f.Oracle, Every: f.OracleEvery}
}

// WriteOracleReport writes err's divergence list as JSON to the
// -oracle-report file, if one is set and err carries a divergence.
func (f *RunFlags) WriteOracleReport(err error) {
	var de *oracle.DivergenceError
	if f.OracleReport == "" || !errors.As(err, &de) {
		return
	}
	if werr := os.WriteFile(f.OracleReport, de.WriteReport(), 0o644); werr != nil {
		fmt.Fprintf(os.Stderr, "%s: oracle report: %v\n", f.prog, werr)
	} else {
		fmt.Fprintf(os.Stderr, "%s: oracle report written to %s\n", f.prog, f.OracleReport)
	}
}
