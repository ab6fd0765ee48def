package remote

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"kbtim/internal/artifact"
)

const (
	// Per-unit status bytes in a batch reply.
	batchOK        = 0
	batchNotServed = 1
	batchFailed    = 2

	// maxBatchUnits bounds one batch request — far above any real round
	// (a round asks for at most a few units per query keyword).
	maxBatchUnits = 4096
	// maxBatchBody bounds the JSON request body the handler will read.
	maxBatchBody = 1 << 20
	// maxArtifactBytes caps one artifact in a reply. Artifacts are bounded
	// by the index file, so the cap only guards against a confused or
	// hostile peer streaming forever.
	maxArtifactBytes = 1 << 30
	// payloadChunk is the first buffer a payload gets when the reply does
	// not declare its length; see readPayload.
	payloadChunk = 64 << 10
)

// batchUnitJSON / batchRequestJSON are the POST body shape.
type batchUnitJSON struct {
	Unit  string `json:"unit"`
	Topic int    `json:"topic"`
	Aux   int64  `json:"aux,omitempty"`
}

type batchRequestJSON struct {
	Kind  string          `json:"kind"`
	Units []batchUnitJSON `json:"units"`
}

// NewBatchHandler returns the HTTP handler serving src's artifacts — mount
// it at BatchPath. Every requested unit is answered in order with its own
// status record, so a unit that does not resolve (or whose read fails)
// degrades that unit alone.
func NewBatchHandler(src Source) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		var req batchRequestJSON
		dec := json.NewDecoder(io.LimitReader(r.Body, maxBatchBody))
		if err := dec.Decode(&req); err != nil {
			http.Error(w, fmt.Sprintf("bad batch request: %v", err), http.StatusBadRequest)
			return
		}
		if req.Kind == "" || len(req.Units) == 0 {
			http.Error(w, "kind and at least one unit are required", http.StatusBadRequest)
			return
		}
		if len(req.Units) > maxBatchUnits {
			http.Error(w, fmt.Sprintf("batch of %d units exceeds the %d-unit cap", len(req.Units), maxBatchUnits), http.StatusBadRequest)
			return
		}
		// Replies are buffered so the headers (version, index size) can be
		// written after the last unit is resolved.
		var body bytes.Buffer
		var lenBuf [binary.MaxVarintLen64]byte
		size := int64(0)
		for _, u := range req.Units {
			b, sz, err := src.ArtifactBytes(req.Kind, u.Unit, u.Topic, u.Aux)
			var status byte
			payload := b
			switch {
			case err == nil:
				status = batchOK
				if size == 0 {
					size = sz
				}
			case notServed(err):
				status = batchNotServed
				payload = []byte(err.Error())
			default:
				status = batchFailed
				payload = []byte(err.Error())
			}
			body.WriteByte(status)
			body.Write(lenBuf[:binary.PutUvarint(lenBuf[:], uint64(len(payload)))])
			body.Write(payload)
		}
		h := w.Header()
		h.Set("Content-Type", "application/octet-stream")
		h.Set(headerVersion, strconv.Itoa(BatchVersion))
		h.Set(headerIndexSize, strconv.FormatInt(size, 10))
		h.Set("Content-Length", strconv.Itoa(body.Len()))
		w.WriteHeader(http.StatusOK)
		body.WriteTo(w)
	})
}

// parseBatchReply reads a batch reply body: one record per request, in
// request order. avail is the body length the reply declared (its
// Content-Length), or -1 when it declared none. Any truncation or
// corruption returns the fully parsed PREFIX with the error — the unserved
// remainder is the caller's to retry — and a record whose length prefix
// claims more bytes than the reply declares fails before anything is
// allocated for it.
func parseBatchReply(body io.Reader, avail int64, kind string, reqs []artifact.Request) ([]artifact.Reply, error) {
	replies := make([]artifact.Reply, 0, len(reqs))
	br := bufio.NewReader(body)
	var lenBuf [binary.MaxVarintLen64]byte
	for i, r := range reqs {
		status, err := br.ReadByte()
		if err != nil {
			return replies, fmt.Errorf("remote: batch reply truncated after %d of %d units: %w", i, len(reqs), err)
		}
		n, err := binary.ReadUvarint(br)
		if err != nil {
			return replies, fmt.Errorf("remote: batch reply truncated in unit %d of %d: %w", i+1, len(reqs), err)
		}
		if n > maxArtifactBytes {
			return replies, fmt.Errorf("remote: batch unit exceeds %d-byte cap", int64(maxArtifactBytes))
		}
		if avail >= 0 {
			avail -= int64(1 + binary.PutUvarint(lenBuf[:], n))
			if int64(n) > avail {
				return replies, fmt.Errorf("remote: batch unit %d of %d claims %d bytes, the reply declares %d more",
					i+1, len(reqs), n, max(avail, 0))
			}
			avail -= int64(n)
		}
		buf, err := readPayload(br, int64(n), avail >= 0)
		if err != nil {
			return replies, fmt.Errorf("remote: batch reply truncated in unit %d of %d: %w", i+1, len(reqs), err)
		}
		switch status {
		case batchOK:
			replies = append(replies, artifact.Reply{Payload: buf})
		case batchNotServed:
			replies = append(replies, artifact.Reply{Err: fmt.Errorf("%w: %s %s artifact (topic %d, aux %d): %s",
				ErrNotServed, kind, r.Unit, r.Topic, r.Aux, buf)})
		case batchFailed:
			replies = append(replies, artifact.Reply{Err: fmt.Errorf("remote: %s %s artifact (topic %d, aux %d): %s",
				kind, r.Unit, r.Topic, r.Aux, buf)})
		default:
			return replies, fmt.Errorf("remote: batch unit %d has unknown status %d", i+1, status)
		}
	}
	return replies, nil
}

// readPayload reads one n-byte record payload. When the reply declared
// enough bytes to hold it (declared), the buffer is allocated at once;
// otherwise it starts at payloadChunk and doubles only as bytes arrive, so
// a garbled length prefix costs at most about twice what the reply actually
// carried, never the length it claims.
func readPayload(r io.Reader, n int64, declared bool) ([]byte, error) {
	if declared || n <= payloadChunk {
		buf := make([]byte, n)
		_, err := io.ReadFull(r, buf)
		return buf, err
	}
	buf := make([]byte, 0, payloadChunk)
	for int64(len(buf)) < n {
		if len(buf) == cap(buf) {
			buf = append(make([]byte, 0, min(n, 2*int64(cap(buf)))), buf...)
		}
		m, err := io.ReadFull(r, buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+m]
		if err != nil {
			return nil, err
		}
	}
	return buf, nil
}
