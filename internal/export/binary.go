package export

import (
	"bufio"
	"encoding/binary"
	"hash/crc32"
	"io"
)

// Binary design image, the form a flashing tool would consume:
//
//	[8]  magic "INCDSGN1"
//	[8]  horizon (int64 BE)     [8] round length (int64 BE)
//	[4]  node table count
//	per node table:
//	  [4] node id | [4] entry count
//	  per entry: [8] start | [8] end | [4] proc | [4] occ | [4] app
//	[4]  MEDL entry count
//	  per entry: [4] round | [4] slot | [4] offset | [4] msg | [4] occ | [4] bytes
//	[4]  IEEE CRC-32 of everything before it
//
// The mapping is not encoded separately — it is implied by the dispatch
// tables (every process appears on exactly one node). The package only
// writes the image; its decoder lives with the tests, which hold the
// encoder to this layout.

var binaryMagic = [8]byte{'I', 'N', 'C', 'D', 'S', 'G', 'N', '1'}

type crcWriter struct {
	w   io.Writer
	crc uint32
}

func (c *crcWriter) Write(p []byte) (int, error) {
	c.crc = crc32.Update(c.crc, crc32.IEEETable, p)
	return c.w.Write(p)
}

// EncodeBinary writes the compact checksummed design image.
func (d *Design) EncodeBinary(w io.Writer) error {
	bw := bufio.NewWriter(w)
	cw := &crcWriter{w: bw}
	put := func(vs ...interface{}) error {
		for _, v := range vs {
			if err := binary.Write(cw, binary.BigEndian, v); err != nil {
				return err
			}
		}
		return nil
	}
	if _, err := cw.Write(binaryMagic[:]); err != nil {
		return err
	}
	if err := put(int64(d.Horizon), int64(d.RoundLen), uint32(len(d.Nodes))); err != nil {
		return err
	}
	for _, nt := range d.Nodes {
		if err := put(int32(nt.Node), uint32(len(nt.Entries))); err != nil {
			return err
		}
		for _, e := range nt.Entries {
			if err := put(int64(e.Start), int64(e.End), int32(e.Proc), int32(e.Occ), int32(e.App)); err != nil {
				return err
			}
		}
	}
	if err := put(uint32(len(d.MEDL))); err != nil {
		return err
	}
	for _, e := range d.MEDL {
		if err := put(int32(e.Round), int32(e.Slot), int32(e.Offset),
			int32(e.Msg), int32(e.Occ), int32(e.Bytes)); err != nil {
			return err
		}
	}
	if err := binary.Write(bw, binary.BigEndian, cw.crc); err != nil {
		return err
	}
	return bw.Flush()
}
