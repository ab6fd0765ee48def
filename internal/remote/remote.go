// Package remote is the cross-node artifact-fetch protocol behind KB-TIM's
// scatter-gather router (DESIGN.md §6.2): it lets one process open another
// process's disk index and query it with the per-keyword artifact reads
// going over HTTP instead of a local file.
//
// The wire unit is the ARTIFACT, not the byte range: every raw segment a
// query ever reads is one of the named units the index packages declare —
// the RR index's keyword set-prefix ("sets", aux = θ-prefix length) and
// inverted region ("inv"), the IRR index's IP table ("ip") and partition
// block ("part", aux = partition index), plus each index's prelude ("dir",
// header + keyword directory). These are exactly the units the decoded
// cache (internal/objcache) keys on, so a router-side cache fronts the wire
// the same way a serve-side cache fronts the disk: a hot keyword skips the
// network AND the decode.
//
// Protocol (version 2). One POST moves a whole fetch round — any number of
// units of one kind, one unit being the degenerate case:
//
//	POST <BatchPath>
//	{"kind":"rr","units":[{"unit":"sets","topic":3,"aux":7}, ...]}
//
//	200 → X-Kbtim-Artifact-Version: 2, X-Kbtim-Index-Size: <file bytes of
//	      the first successfully served unit, 0 if none> (the remote open
//	      validates directory offsets against it), and a body with one
//	      record per requested unit IN REQUEST ORDER:
//
//	        status byte | uvarint length | payload
//
//	      status 0 = ok (payload is the stored artifact bytes verbatim),
//	      1 = not served on this node (payload is the error text; terminal,
//	      the name resolves the same way on every replica), 2 = failed
//	      (payload is the error text; retryable on another replica).
//	      Failures are isolated per unit: one missing keyword never fails
//	      the round's other fetches.
//	400 → malformed request.
//
// The record stream is strictly ordered and length-prefixed, so a client
// whose connection dies mid-body keeps every fully parsed record and can
// re-issue just the unserved remainder to the next replica.
//
// Because payloads are the stored bytes verbatim and every decode runs with
// the directory the serving node itself uses, a query over remote indexes
// is bit-identical to the same query over local opens of the same files —
// the parity invariant the router's spanning-query path relies on.
package remote

import (
	"errors"
	"fmt"

	"kbtim/internal/irrindex"
	"kbtim/internal/rrindex"
)

// ErrNoArtifact marks a request whose NAME does not resolve on this node —
// unknown kind, no index of that kind attached. Sources wrap it (the index
// packages have their own equivalents for unknown unit/keyword/partition)
// so the handler can mark the unit "not served here", while a resolvable
// artifact whose read failed is marked "failed": routers must be able to
// tell "that keyword lives elsewhere" from "retry this node".
var ErrNoArtifact = errors.New("remote: no such artifact")

// notServed reports whether err means the artifact name does not resolve
// (any layer's sentinel), as opposed to a read/engine failure.
func notServed(err error) bool {
	return errors.Is(err, ErrNoArtifact) ||
		errors.Is(err, rrindex.ErrNoArtifact) ||
		errors.Is(err, irrindex.ErrNoArtifact)
}

// Protocol constants.
const (
	// BatchVersion is the artifact protocol version; client and server
	// must agree exactly (the payload encoding is the index file format
	// itself, which carries its own version in the "dir" unit).
	BatchVersion = 2
	// BatchPath is the conventional mount point of the handler on a
	// kbtim-serve node.
	BatchPath = "/internal/artifacts"
	// KindRR and KindIRR name the two index kinds.
	KindRR  = "rr"
	KindIRR = "irr"

	headerVersion   = "X-Kbtim-Artifact-Version"
	headerIndexSize = "X-Kbtim-Index-Size"
)

// Source serves raw artifact bytes from locally attached indexes; it is the
// seam between the HTTP handler and the index layer. kbtim.Engine
// implements it (pinning the index handle for each read), and
// IndexSource adapts bare rrindex/irrindex Index values for tests and
// benchmarks. The returned size is the index file's total byte length.
type Source interface {
	ArtifactBytes(kind, unit string, topic int, aux int64) ([]byte, int64, error)
}

// IndexSource adapts directly opened Index values to the Source interface
// (no engine, no handle pinning — the caller owns the index lifetimes).
// Either field may be nil; its kind is then not served.
type IndexSource struct {
	RR  rrArtifacts
	IRR irrArtifacts
}

// rrArtifacts / irrArtifacts are the tiny per-kind surfaces IndexSource
// needs; *rrindex.Index and *irrindex.Index satisfy them.
type rrArtifacts interface {
	ArtifactBytes(unit string, topic int, aux int64) ([]byte, error)
	Size() int64
}

type irrArtifacts = rrArtifacts

// ArtifactBytes implements Source.
func (s IndexSource) ArtifactBytes(kind, unit string, topic int, aux int64) ([]byte, int64, error) {
	var idx rrArtifacts
	switch kind {
	case KindRR:
		idx = s.RR
	case KindIRR:
		idx = s.IRR
	default:
		return nil, 0, fmt.Errorf("%w: unknown index kind %q (want rr or irr)", ErrNoArtifact, kind)
	}
	if idx == nil {
		return nil, 0, fmt.Errorf("%w: no %s index attached", ErrNoArtifact, kind)
	}
	b, err := idx.ArtifactBytes(unit, topic, aux)
	if err != nil {
		return nil, 0, err
	}
	return b, idx.Size(), nil
}
