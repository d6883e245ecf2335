package sim

// noSleepScheme is the §5.1 baseline: every device is on from t=0 and the
// infinite idle timeout means nothing ever sleeps (its row is alwaysOn).
// It anchors the savings comparisons of Figs 6-8 and the headline numbers.
type noSleepScheme struct{ baseScheme }

// postInit marks every line active. Under a quotient run that is every
// full-scenario line (via applyLineOp's mirror fan-out), not just the
// simulated representatives. The cards start On and, the row being
// alwaysOn, updateCards never puts them to sleep.
func (noSleepScheme) postInit(s *sim) {
	for g := range s.gws {
		s.applyLineOp(g, true, 0)
	}
}
