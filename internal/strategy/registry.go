package strategy

import (
	"fmt"
	"math"
	"slices"

	"sompi/internal/opt"
)

// ParamSpec is one strategy parameter's wire schema: GET /v1/strategies
// serves these so clients can discover and validate parameters without
// guessing. All parameters travel as JSON numbers; Type documents how
// the strategy interprets the number.
type ParamSpec struct {
	// Name is the parameter key in a strategy_params object.
	Name string `json:"name"`
	// Type is "float", "int" or "bool" (bools: 0 = false, nonzero = true).
	Type string `json:"type"`
	// Default is the value used when the parameter is omitted.
	Default float64 `json:"default"`
	// Min and Max bound accepted values (inclusive).
	Min float64 `json:"min"`
	Max float64 `json:"max"`
	// Doc is a one-line description.
	Doc string `json:"doc"`
}

// Descriptor is one registry entry: a named strategy constructor plus
// its parameter schema.
type Descriptor struct {
	// Name is the registry key ("sompi", "portfolio", ...).
	Name string `json:"name"`
	// Summary is a one-line description of the policy.
	Summary string `json:"summary"`
	// Params is the strategy's parameter schema.
	Params []ParamSpec `json:"params"`
	// New builds the strategy from a parameter map. Missing keys take
	// their defaults; unknown keys and out-of-range values are rejected
	// with an opt.ErrInvalidConfig-wrapped error.
	New func(params map[string]float64) (Strategy, error) `json:"-"`
}

// DefaultName is the strategy an empty name resolves to; Names()[0] is
// always this strategy regardless of init order.
const DefaultName = "sompi"

// registry holds the built-in strategies with DefaultName pinned first.
// The set is fixed at init time: metric label sets and cache namespaces
// derive from it, so it must be bounded and immutable at runtime.
var registry []Descriptor

// register adds a descriptor at init time, refusing duplicates. The
// default strategy is moved to the front so Names()[0] is stable no
// matter which file's init ran first (Go inits files alphabetically).
func register(d Descriptor) {
	for _, have := range registry {
		if have.Name == d.Name {
			panic("strategy: duplicate registration of " + d.Name)
		}
	}
	if d.Name == DefaultName {
		registry = append([]Descriptor{d}, registry...)
		return
	}
	registry = append(registry, d)
}

// List returns the registered strategies, the default first. The slice is a copy; descriptors are shared.
func List() []Descriptor {
	out := make([]Descriptor, len(registry))
	copy(out, registry)
	return out
}

// Names returns the registered strategy names, the default first.
func Names() []string {
	out := make([]string, len(registry))
	for i, d := range registry {
		out[i] = d.Name
	}
	return out
}

// Lookup finds a descriptor by exact name. The empty name resolves to
// DefaultName.
func Lookup(name string) (Descriptor, bool) {
	if name == "" {
		name = DefaultName
	}
	for _, d := range registry {
		if d.Name == name {
			return d, true
		}
	}
	return Descriptor{}, false
}

// New builds a named strategy with the given parameters (nil = all
// defaults). Unknown names are reported as ErrUnknownStrategy; bad
// parameters as opt.ErrInvalidConfig.
func New(name string, params map[string]float64) (Strategy, error) {
	d, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("%w: %q (have %v)", ErrUnknownStrategy, name, Names())
	}
	return d.New(params)
}

// decodeParams validates params against specs and returns the effective
// values with defaults applied. The parameter surface is flat numeric on
// purpose: it survives JSON round-trips exactly and keeps cache keys and
// report rows canonical. Parameters are checked in name order, so a
// request with several bad ones always gets the same error.
func decodeParams(strategyName string, specs []ParamSpec, params map[string]float64) (map[string]float64, error) {
	out := make(map[string]float64, len(specs))
	for _, sp := range specs {
		out[sp.Name] = sp.Default
	}
	names := make([]string, 0, len(params))
	for k := range params {
		names = append(names, k)
	}
	slices.Sort(names)
	for _, k := range names {
		v := params[k]
		sp, ok := findSpec(specs, k)
		if !ok {
			return nil, fmt.Errorf("%w: strategy %q has no parameter %q", opt.ErrInvalidConfig, strategyName, k)
		}
		if math.IsNaN(v) || v < sp.Min || v > sp.Max {
			return nil, fmt.Errorf("%w: strategy %q parameter %q = %v outside [%g, %g]",
				opt.ErrInvalidConfig, strategyName, k, v, sp.Min, sp.Max)
		}
		if sp.Type == "int" && v != math.Trunc(v) {
			return nil, fmt.Errorf("%w: strategy %q parameter %q = %v is not an integer",
				opt.ErrInvalidConfig, strategyName, k, v)
		}
		out[k] = v
	}
	return out, nil
}

func findSpec(specs []ParamSpec, name string) (ParamSpec, bool) {
	for _, sp := range specs {
		if sp.Name == name {
			return sp, true
		}
	}
	return ParamSpec{}, false
}
