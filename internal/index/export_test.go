package index

// DepthCacheLen reports how many window sizes the process-wide depth-table
// cache holds, so tests can bound its growth.
func DepthCacheLen() int {
	depthMu.RLock()
	defer depthMu.RUnlock()
	return len(depthCache)
}
