package xlate

import (
	"fmt"

	"gtpin/internal/cl"
	"gtpin/internal/isa"
	"gtpin/internal/jit"
	"gtpin/internal/kernel"
)

// Target is one run's ISA target: the dialect every program's IR is
// retargeted to as it enters the driver (the workload then behaves as
// if authored for that dialect), and the dialect every compiled kernel
// is binary-translated to below GT-Pin's rewriter. Both are idempotent
// on already-matching input, so either combines with any workload. The
// zero value is the native target: programs compile as authored and
// binaries run untranslated, with no per-program work at all.
//
// A Target is plain data so it can ride in a fleet lease descriptor
// and fold into journal keys; ParseTarget canonicalizes the names.
type Target struct {
	Dialect   string `json:"dialect,omitempty"`
	Translate string `json:"translate,omitempty"`
}

// ParseTarget validates and canonicalizes the -dialect/-translate
// flag values; empty strings select no retargeting or translation.
func ParseTarget(dialect, translate string) (Target, error) {
	var t Target
	if dialect != "" {
		d, err := isa.ParseDialect(dialect)
		if err != nil {
			return Target{}, fmt.Errorf("-dialect: %w", err)
		}
		t.Dialect = d.String()
	}
	if translate != "" {
		d, err := isa.ParseDialect(translate)
		if err != nil {
			return Target{}, fmt.Errorf("-translate: %w", err)
		}
		t.Translate = d.String()
	}
	return t, nil
}

// IsZero reports whether t is the native target.
func (t Target) IsZero() bool { return t == Target{} }

// String renders the target for keys and logs: "" for the native
// target, else e.g. "dialect=genx,translate=gen".
func (t Target) String() string {
	switch {
	case t.Dialect != "" && t.Translate != "":
		return "dialect=" + t.Dialect + ",translate=" + t.Translate
	case t.Dialect != "":
		return "dialect=" + t.Dialect
	case t.Translate != "":
		return "translate=" + t.Translate
	}
	return ""
}

// ProgramTransform returns the driver-side IR retargeting for this
// target, or nil when programs compile as authored.
func (t Target) ProgramTransform() cl.ProgramTransform {
	if t.Dialect == "" {
		return nil
	}
	d, err := isa.ParseDialect(t.Dialect)
	return func(ir *kernel.Program) (*kernel.Program, error) {
		if err != nil {
			return nil, fmt.Errorf("xlate: target: %w", err)
		}
		return RetargetProgram(ir, d)
	}
}

// BinaryTransform returns the translation every compiled kernel
// undergoes before instrumentation, or nil when binaries run as
// compiled.
func (t Target) BinaryTransform() cl.BuildHook {
	if t.Translate == "" {
		return nil
	}
	d, err := isa.ParseDialect(t.Translate)
	return func(bin *jit.Binary) (*jit.Binary, error) {
		if err != nil {
			return nil, fmt.Errorf("xlate: target: %w", err)
		}
		return TranslateBinary(bin, d)
	}
}

// Apply installs the target on a context before it creates programs.
// The native target installs nothing.
func (t Target) Apply(ctx *cl.Context) {
	if !t.IsZero() {
		ctx.SetTransforms(t.ProgramTransform(), t.BinaryTransform())
	}
}
