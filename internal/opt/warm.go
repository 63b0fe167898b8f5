package opt

import "sompi/internal/model"

// WarmBound always returns (0, false). Every optimization runs the same
// cold search, so no previous plan seeds it; this stub exists only so
// the bench module, which still calls it, builds.
//
// Deprecated: call OptimizeContext with a shared ReuseCache instead.
func WarmBound(Config, model.Plan) (cost float64, ok bool) { return 0, false }
