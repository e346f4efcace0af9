package netserve

// SetRestoreLimit lowers the restore body bound for a test.
func (h *Handler) SetRestoreLimit(n int64) { h.restoreLimit = n }

// DecodeReply decodes a scored frame's binary reply.
var DecodeReply = decodeReply
