package fusion

// RequestLatency reports enqueue→completion time for a finished entry that
// has not been released yet; ok is false otherwise.
func (s *Scheduler) RequestLatency(uid int64) (int64, bool) {
	e := s.lookup(uid)
	if e == nil || e.respStatus != StatusCompleted {
		return 0, false
	}
	return e.done.At() - e.enqueuedAt, true
}
