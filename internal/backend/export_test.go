package backend

// Unexported names the external test package needs. The tests that use
// them run the applications, which import this package through ttg, so
// they cannot live in package backend itself.
const KCtrl = kCtrl

// DecodeData is the receive half of the eager wire path.
var DecodeData = decodeData

// DecodeGather is the receive half of the by-reference wire path.
var DecodeGather = (*Proc).decodeGather
