package export

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"incdes/internal/model"
	"incdes/internal/tm"
)

type crcReader struct {
	r   io.Reader
	crc uint32
}

func (c *crcReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.crc = crc32.Update(c.crc, crc32.IEEETable, p[:n])
	return n, err
}

// DecodeBinary parses an image produced by EncodeBinary, verifying magic
// and checksum: the reference the encoder is held to. Bus-side timing
// fields of the MEDL (owner, start, end) are not part of the image.
func DecodeBinary(r io.Reader) (*Design, error) {
	cr := &crcReader{r: bufio.NewReader(r)}
	get := func(vs ...interface{}) error {
		for _, v := range vs {
			if err := binary.Read(cr, binary.BigEndian, v); err != nil {
				return err
			}
		}
		return nil
	}
	var magic [8]byte
	if _, err := io.ReadFull(cr, magic[:]); err != nil {
		return nil, fmt.Errorf("export: reading magic: %w", err)
	}
	if magic != binaryMagic {
		return nil, fmt.Errorf("export: bad magic %q", magic)
	}
	var horizon, roundLen int64
	var nodeCount uint32
	if err := get(&horizon, &roundLen, &nodeCount); err != nil {
		return nil, fmt.Errorf("export: reading header: %w", err)
	}
	const maxCount = 1 << 24 // sanity bound against corrupted images
	if nodeCount > maxCount {
		return nil, fmt.Errorf("export: implausible node count %d", nodeCount)
	}
	d := &Design{
		Horizon:  tm.Time(horizon),
		RoundLen: tm.Time(roundLen),
		Mapping:  model.Mapping{},
	}
	for i := uint32(0); i < nodeCount; i++ {
		var node int32
		var entryCount uint32
		if err := get(&node, &entryCount); err != nil {
			return nil, fmt.Errorf("export: reading node table %d: %w", i, err)
		}
		if entryCount > maxCount {
			return nil, fmt.Errorf("export: implausible entry count %d", entryCount)
		}
		nt := NodeTable{Node: model.NodeID(node)}
		for j := uint32(0); j < entryCount; j++ {
			var start, end int64
			var proc, occ, app int32
			if err := get(&start, &end, &proc, &occ, &app); err != nil {
				return nil, fmt.Errorf("export: reading dispatch entry: %w", err)
			}
			nt.Entries = append(nt.Entries, DispatchEntry{
				Start: tm.Time(start), End: tm.Time(end),
				Proc: model.ProcID(proc), Occ: int(occ), App: model.AppID(app),
			})
			d.Mapping[model.ProcID(proc)] = model.NodeID(node)
		}
		d.Nodes = append(d.Nodes, nt)
	}
	var medlCount uint32
	if err := get(&medlCount); err != nil {
		return nil, fmt.Errorf("export: reading MEDL count: %w", err)
	}
	if medlCount > maxCount {
		return nil, fmt.Errorf("export: implausible MEDL count %d", medlCount)
	}
	for i := uint32(0); i < medlCount; i++ {
		var round, slot, offset, msg, occ, bytes int32
		if err := get(&round, &slot, &offset, &msg, &occ, &bytes); err != nil {
			return nil, fmt.Errorf("export: reading MEDL entry: %w", err)
		}
		d.MEDL = append(d.MEDL, MEDLEntry{
			Round: int(round), Slot: int(slot), Offset: int(offset),
			Msg: model.MsgID(msg), Occ: int(occ), Bytes: int(bytes),
		})
	}
	computed := cr.crc
	var stored uint32
	if err := binary.Read(cr.r, binary.BigEndian, &stored); err != nil {
		return nil, fmt.Errorf("export: reading checksum: %w", err)
	}
	if computed != stored {
		return nil, fmt.Errorf("export: checksum mismatch: computed %08x, stored %08x", computed, stored)
	}
	return d, nil
}
