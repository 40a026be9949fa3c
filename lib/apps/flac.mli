(** A lossless audio compressor implementing FLAC's core scheme: per-frame
    fixed linear predictors (orders 0-2) selected by residual magnitude,
    with Rice-coded residuals.  This is the libFLAC stand-in for the
    voice-assistant compressor (paper, 6.5.1); a decoder is included so
    tests can verify bit-exact round trips.

    [compress_cycles_per_sample] is the CPU cost the caller charges per
    input sample when running inside the simulation. *)

val compress : int array -> bytes
val decompress : bytes -> int array

(** Compression ratio achieved on the samples (input bytes / output
    bytes). *)
val ratio : int array -> float

val compress_cycles_per_sample : int
