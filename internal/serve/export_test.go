package serve

import "sync/atomic"

// tickFallbacks counts the streams scanTicks has handed to forEachTick.
var tickFallbacks atomic.Int64

func init() { onTickFallback = func() { tickFallbacks.Add(1) } }
