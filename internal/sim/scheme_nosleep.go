package sim

// noSleepScheme is the §5.1 baseline: every device is on from t=0 and the
// infinite idle timeout means nothing ever sleeps (its row is alwaysOn).
// It anchors the savings comparisons of Figs 6-8 and the headline numbers.
type noSleepScheme struct{ baseScheme }

// postInit marks every line active so cards and modems never sleep. Under
// a quotient run that is every full-scenario line (via applyLineOp's
// mirror fan-out), not just the simulated representatives. No-sleep has
// no siblings: its fabric is fabrics[0].
func (noSleepScheme) postInit(s *sim) {
	for g := range s.gws {
		s.applyLineOp(g, true, 0)
	}
	for cd := range s.fabrics[0].cardOn {
		s.fabrics[0].cardOn[cd] = true
	}
}
