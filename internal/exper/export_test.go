package exper

// Resident returns how many machines the slot currently keeps.
func (s *MachineSlot) Resident() int { return len(s.ms) }
