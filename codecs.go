package smol

import (
	"fmt"

	"smol/internal/codec/jpeg"
	"smol/internal/codec/spng"
	"smol/internal/codec/vid"
	"smol/internal/img"
)

// Codec identifies the encoding of a MediaInput. The serving stack is
// codec-generic: ingest plans, planner memoization, and decode state are all
// keyed by codec, so same-dimension inputs of different codecs never share
// a compiled plan.
type Codec int

// Supported media codecs.
const (
	// CodecJPEG is the built-in baseline JPEG codec (ROI and DCT-domain
	// scaled decoding available).
	CodecJPEG Codec = iota
	// CodecPNG is the lossless spng codec.
	CodecPNG
	// CodecVideo is the H.264-like SVID video codec (I/P frames, in-loop
	// deblocking). Video inputs are streams of frames; index them with
	// IndexVideo and serve them with the Server's stored-video methods
	// rather than ClassifyMedia.
	CodecVideo
)

func (c Codec) String() string {
	switch c {
	case CodecJPEG:
		return "jpeg"
	case CodecPNG:
		return "png"
	case CodecVideo:
		return "svid"
	default:
		return fmt.Sprintf("Codec(%d)", int(c))
	}
}

// MediaInput is one encoded input tagged with its codec: the media-generic
// unit the serving stack plans for and decodes. Still images (JPEG, PNG)
// flow through ClassifyMedia. A video stream is a whole request, not one
// sample, so ClassifyMedia rejects CodecVideo: IndexVideo turns the
// stream's bytes into a StoredVideo, which ClassifyVideoStored,
// EstimateMeanStored and SelectVideo serve through its GOP index.
type MediaInput struct {
	Codec Codec
	Data  []byte
}

// Image re-exports the 8-bit interleaved RGB image type used throughout.
type Image = img.Image

// Rect re-exports the rectangle type used for ROI decoding.
type Rect = img.Rect

// NewImage allocates a zeroed image.
func NewImage(w, h int) *Image { return img.New(w, h) }

// EncodeJPEG compresses an image with the built-in baseline JPEG codec.
// quality is the IJG quality in [1,100] (0 = 75).
func EncodeJPEG(m *Image, quality int) []byte {
	return jpeg.Encode(m, jpeg.EncodeOptions{Quality: quality})
}

// DecodeJPEG decompresses a baseline JPEG.
func DecodeJPEG(data []byte) (*Image, error) { return jpeg.Decode(data) }

// JPEGDecodeStats re-exports the partial-decoding work counters.
type JPEGDecodeStats = jpeg.DecodeStats

// DecodeJPEGROI partially decodes only the macroblock-aligned region
// containing roi (the paper's Algorithm 1): entropy decoding stops after
// the last needed macroblock row, and reconstruction (IDCT, upsampling,
// color conversion) is skipped outside the region. The returned rectangle
// locates the decoded image within the full frame.
func DecodeJPEGROI(data []byte, roi Rect) (*Image, Rect, *JPEGDecodeStats, error) {
	return jpeg.DecodeWithOptions(data, jpeg.DecodeOptions{ROI: &roi})
}

// DecodeJPEGScaled decodes at reduced resolution directly in the DCT
// domain (the paper's low-resolution decode, §5): scale 2, 4 or 8 shrinks
// IDCT and color-conversion work by ~scale^2 via reduced 4x4/2x2/1x1
// inverse transforms while the entropy stream is still fully parsed. The
// output approximates a full decode followed by a box downsample by scale.
func DecodeJPEGScaled(data []byte, scale int) (*Image, *JPEGDecodeStats, error) {
	m, _, stats, err := jpeg.DecodeWithOptions(data, jpeg.DecodeOptions{Scale: scale})
	return m, stats, err
}

// JPEGDecoder re-exports the reusable JPEG decoder: Parse once, then
// Decode with any combination of ROI, Scale and a pooled destination
// image. Warm instances decode without allocating.
type JPEGDecoder = jpeg.Decoder

// JPEGDecodeOptions re-exports the decode options (ROI, EarlyStopRow,
// Scale, Dst) accepted by JPEGDecoder.Decode.
type JPEGDecodeOptions = jpeg.DecodeOptions

// EncodePNG compresses losslessly with the PNG-like codec.
func EncodePNG(m *Image) []byte { return spng.Encode(m, 0) }

// DecodePNG decompresses an spng image.
func DecodePNG(data []byte) (*Image, error) { return spng.Decode(data) }

// EncodeVideo compresses frames with the H.264-like codec (I/P frames,
// motion compensation, in-loop deblocking). quality in [1,100], gop is the
// I-frame interval.
func EncodeVideo(frames []*Image, quality, gop int) ([]byte, error) {
	return vid.Encode(frames, vid.EncodeOptions{Quality: quality, GOP: gop})
}

// DecodeVideo decompresses every frame. disableDeblock skips the in-loop
// deblocking filter for faster, reduced-fidelity decoding (§6.4).
func DecodeVideo(data []byte, disableDeblock bool) ([]*Image, error) {
	return vid.DecodeAll(data, vid.DecodeOptions{DisableDeblock: disableDeblock})
}

// VideoInfo re-exports the stream-header summary (dimensions, frame count,
// GOP) the video planner peeks at without decoding.
type VideoInfo = vid.Info

// ProbeVideo parses an SVID stream header.
func ProbeVideo(data []byte) (VideoInfo, error) { return vid.Probe(data) }

// VideoDecodeStats re-exports the video decoder's work counters
// (frames/IDCT blocks/deblocked edges/macroblock modes).
type VideoDecodeStats = vid.DecodeStats
