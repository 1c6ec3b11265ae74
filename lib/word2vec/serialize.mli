(** Saving and loading trained SGNS models. Both word and context
    matrices are stored (prediction by the paper's equation (4) needs
    the context vectors too). Round-trips to identical predictions
    (tested).

    [save] writes the version-4 binary format: a text magic line, then
    length-prefixed sections — each vocabulary once, and the embedding
    matrices as raw little-endian floats (exact round-trip, no decimal
    printing). Matrix sections are preceded by pad sections that
    8-align their float runs in the file, which is what lets
    {!load_mapped} serve the vectors straight out of an [mmap] instead
    of copying them. Emission is in vocab-id order and pads are
    deterministic, so save → load → save is byte-identical.

    Version 3 (no pads, whole-body checksum) and versions 1 and 2 (the
    older word2vec-style text format) still load; {!to_string_v3} and
    {!to_channel_v2} keep writers around for compatibility fixtures.

    Every format is self-checking (v2's [end <record-count>] trailer,
    v3/v4's section framing and checksum trailer), so truncation,
    trailing garbage and bit-flips are detected. Loaders never raise
    [Failure]; every malformed input is reported as a {!Lexkit.Diag.t}
    with kind [Corrupt_model] — a line number for text formats, a byte
    offset in the message for binary. That includes a well-formed file
    whose config {!Sgns.config_error} refuses (say [negatives] =
    10{^8}): models and checkpoints alike, with the field named. *)

val save : Sgns.t -> string -> unit
(** Raises [Sys_error] on I/O failure. *)

val load : string -> (Sgns.t, Lexkit.Diag.t) result
(** Read a model back; [Error] carries an [Io_error] (unreadable file)
    or line-numbered [Corrupt_model] diagnostic. Never raises. *)

val load_exn : string -> Sgns.t
(** Like {!load} but raises {!Lexkit.Diag.Error} on failure. *)

val load_mapped :
  string -> (Sgns.view * Lexkit.Storage.t, Lexkit.Diag.t) result
(** Zero-copy load: walk the v4 structure reading only headers, the
    vocabularies and the checksum trailer, then map the file and wire
    both embedding matrices to [Bigarray] views over its float runs —
    O(vocabulary), and the matrices are the bulk of a trained model.
    The mapped payloads are checksummed lazily, at the first inference
    entry point; a mismatch then raises {!Lexkit.Diag.Error} with kind
    [Corrupt_model].

    Environmental obstacles (v1–v3 file, misaligned payload,
    big-endian host, mmap failure) silently fall back to the copy
    loader and report [Storage.Heap] with a note saying why; only
    structural damage is an [Error]. *)

val to_channel : Sgns.t -> out_channel -> unit

val to_string : Sgns.t -> string
(** The version-4 binary image [save]/[to_channel] write. *)

val to_string_v3 : Sgns.t -> string
(** Version-3 binary writer, for compatibility fixtures. *)

val to_channel_v2 : Sgns.t -> out_channel -> unit
(** Version-2 text writer, for compatibility fixtures. *)

val from_channel : ?source:string -> in_channel -> Sgns.t
(** Raises {!Lexkit.Diag.Error} (kind [Corrupt_model]) on malformed
    input; [source] names the input in diagnostics. *)

val of_string : ?source:string -> string -> (Sgns.t, Lexkit.Diag.t) result
(** Parse a model held in memory — the fuzz suite's entry point. *)

(** {2 Training checkpoints}

    Mid-training state for out-of-core runs ({!Sgns.train_stream}):
    both flat matrices as raw float bits, the vocabularies, the
    config, the resume cursor and the shard layout. Self-checking like
    models (magic line, section framing, checksum trailer); a restored
    checkpoint resumes bit-exactly. *)

val checkpoint_save : string -> Sgns.ckpt -> unit
(** Atomic (temp file + rename): a SIGKILL mid-save leaves the
    previous checkpoint intact or the new one complete, never a torn
    file. Raises [Sys_error] on I/O failure. *)

val checkpoint_to_string : Sgns.ckpt -> string

val checkpoint_load : string -> (Sgns.ckpt, Lexkit.Diag.t) result
(** [Error] carries [Io_error] (unreadable) or [Corrupt_model]
    (truncated, mangled, bad cursor or shard layout, checksum
    mismatch, a config out of {!Sgns.config_error}'s bounds). *)

val checkpoint_of_string :
  ?source:string -> string -> (Sgns.ckpt, Lexkit.Diag.t) result
