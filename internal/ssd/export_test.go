package ssd

// CMBAllocated reports whether c holds its Controller Memory Buffer.
func CMBAllocated(c *Controller) bool { return c.cmb != nil }
