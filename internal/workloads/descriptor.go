package workloads

import (
	"encoding/json"
	"fmt"

	"gtpin/internal/device"
	"gtpin/internal/faults"
	"gtpin/internal/xlate"
)

// UnitDescriptor is the self-contained, serializable form of a Unit —
// what the fleet coordinator hands a worker process inside a lease.
// Everything a worker needs to re-execute the unit rides along: the
// application is named (specs carry build functions and are looked up
// in the roster), but the scale and device configuration are embedded
// verbatim, so a descriptor does not depend on the worker agreeing
// with the coordinator about preset names. The round trip preserves
// Unit.Key exactly, which is what makes a re-dispatched unit land on
// the same journal identity wherever it runs.
type UnitDescriptor struct {
	App       string           `json:"app"`
	Scale     Scale            `json:"scale"`
	Cfg       device.Config    `json:"config"`
	TrialSeed int64            `json:"trial_seed"`
	Faults    *FaultDescriptor `json:"faults,omitempty"`
	// Target's fields are flattened and omitted when empty, so a
	// native unit's descriptor bytes carry no target at all.
	xlate.Target
}

// FaultDescriptor is the serializable subset of FaultOptions. The
// resilience-policy override is deliberately absent: it carries
// function-valued policy and never appears on sweep units, so a unit
// using one is not re-dispatchable and Descriptor refuses it.
type FaultDescriptor struct {
	Rates    faults.Rates `json:"rates"`
	Seed     int64        `json:"seed"`
	Watchdog uint64       `json:"watchdog"`
}

// Descriptor returns the unit's portable form, or an error when the
// unit is not self-contained (a resilience-policy override cannot cross
// a process boundary).
func (u Unit) Descriptor() (UnitDescriptor, error) {
	d := UnitDescriptor{
		App:       u.Spec.Name,
		Scale:     u.Scale,
		Cfg:       u.Cfg,
		TrialSeed: u.TrialSeed,
		Target:    u.Target,
	}
	if u.Faults != nil {
		if u.Faults.Resilience != nil {
			return UnitDescriptor{}, fmt.Errorf(
				"workloads: unit %s: resilience-policy overrides are not serializable", u.Key())
		}
		d.Faults = &FaultDescriptor{
			Rates:    u.Faults.Rates,
			Seed:     u.Faults.Seed,
			Watchdog: u.Faults.Watchdog,
		}
	}
	return d, nil
}

// Unit rebuilds the executable unit: the application spec is resolved
// from the roster by name; everything else is carried by value.
func (d UnitDescriptor) Unit() (Unit, error) {
	spec, err := ByName(d.App)
	if err != nil {
		return Unit{}, fmt.Errorf("workloads: descriptor: %w", err)
	}
	u := Unit{Spec: spec, Scale: d.Scale, Cfg: d.Cfg, TrialSeed: d.TrialSeed, Target: d.Target}
	if d.Faults != nil {
		u.Faults = &FaultOptions{
			Rates:    d.Faults.Rates,
			Seed:     d.Faults.Seed,
			Watchdog: d.Faults.Watchdog,
		}
	}
	return u, nil
}

// Key returns the journal identity the rebuilt unit will have, without
// resolving the spec — the coordinator uses it to address units whose
// descriptors it only holds serialized.
func (d UnitDescriptor) Key() string {
	var fo *FaultOptions
	if d.Faults != nil {
		fo = &FaultOptions{Rates: d.Faults.Rates, Seed: d.Faults.Seed, Watchdog: d.Faults.Watchdog}
	}
	return unitKey(d.App, d.Cfg, d.Scale, d.TrialSeed, fo, d.Target)
}

// Encode serializes the descriptor canonically.
func (d UnitDescriptor) Encode() ([]byte, error) {
	data, err := json.Marshal(d)
	if err != nil {
		return nil, fmt.Errorf("workloads: encode descriptor for %s: %w", d.App, err)
	}
	return data, nil
}

// DecodeDescriptor parses a descriptor written by Encode.
func DecodeDescriptor(data []byte) (UnitDescriptor, error) {
	var d UnitDescriptor
	if err := json.Unmarshal(data, &d); err != nil {
		return UnitDescriptor{}, fmt.Errorf("workloads: decode descriptor: %w", err)
	}
	if d.App == "" {
		return UnitDescriptor{}, fmt.Errorf("workloads: decode descriptor: missing app")
	}
	return d, nil
}
