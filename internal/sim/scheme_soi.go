package sim

import "insomnia/internal/kswitch"

// soiScheme is plain Sleep-on-Idle (§2.3): gateways doze after their idle
// timeout and every client sticks to its home gateway — all behavior the
// baseScheme defaults already provide. The three SoI variants differ only
// in the DSLAM switch fabric carrying the lines (§4.2).
type soiScheme struct {
	baseScheme
	fabric fabric
}

func (sc soiScheme) newPolicy(cfg Config) (kswitch.Policy, error) {
	return sc.fabric.build(cfg)
}

// Routing is always the home gateway and wake/sleep side effects beyond the
// gateway itself are pure switch-fabric sinks: every event is shard-local.
func (soiScheme) shardLocal() bool { return true }
