package serve

// SolutionJSON returns the one encoding of job id's solution that its
// status documents write (nil until the job has one). Every job of a
// flight shares the flight's.
func (s *Server) SolutionJSON(id string) []byte {
	_, res, _ := s.job(id).snapshot()
	if res.solved == nil {
		return nil
	}
	return res.solved.json
}
