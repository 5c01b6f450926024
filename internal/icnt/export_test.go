package icnt

// Lanes returns how many FIFO lanes the link has opened, its peak number of
// interleaved monotone send streams so far.
func (l *Link) Lanes() int { return len(l.lanes) }
