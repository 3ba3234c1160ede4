package serve

// SolutionJSON returns the encoding of job id's solution that its status
// documents write: its flight's, which every member shares, or nil for a
// job whose answer encodes its document.
func (s *Server) SolutionJSON(id string) []byte {
	j := s.job(id)
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.docJSON
}
