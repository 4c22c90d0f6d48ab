(** The binary write-ahead log: a {!Log_file} of CRC-framed records
    whose LSN is their byte offset.

    Appends are buffered; {!flush} makes them durable with one write +
    fsync (group commit).  An injected crash during flush leaves a torn
    prefix of the pending bytes on disk, and the opening scan stops —
    without failing — at the first incomplete or CRC-invalid frame,
    exactly as recovery after a power cut must.  This module adds the
    record codec, the [wal.*] metrics, the [wal.flush] span and the
    log's own silent faults (bit flips and torn writes) to
    {!Log_file}'s append protocol.

    The record type deliberately mirrors {!Transactions.Recovery.record}
    (the paper's §6 in-memory model); {!to_model}/{!of_model} are the
    bridge, round-trip tested.  Compensation records ([compensation =
    true]) are the undo writes logged during abort and recovery — the
    ARIES CLR, minus the undo-next pointer. *)

(** The logged record kinds, mirroring
    {!Transactions.Recovery.record} plus [Checkpoint] and [Prepare] —
    the durable vote of a two-phase-commit participant: the txn's
    writes and its [Prepare] are on disk before the shard votes yes,
    so a surviving [Prepare] marks an in-doubt transaction that
    restart recovery must resolve against the coordinator log. *)
type record =
  | Begin of int
  | Write of { txn : int; item : string; before : int; after : int; compensation : bool }
  | Commit of int
  | Abort of int
  | Checkpoint
  | Prepare of int

type entry = { lsn : int; record : record }
(** A scanned record with its LSN (byte offset in the file). *)

type image = { base : int; bytes : string }
(** Log bytes read from file offset [base] on: the frame at LSN [l] is
    at [bytes.[l - base]], so LSNs stay file offsets whatever the start.
    {!open_log} returns one. *)

type kind = [ `Begin | `Write | `Commit | `Abort | `Checkpoint | `Prepare ]
(** A frame's record kind, read from its header byte without decoding
    the payload; compensation writes are [`Write]s. *)

type t
(** An open log: file descriptor, pending append buffer, and durable
    watermark. *)

val open_log :
  ?fault:Fault.t -> ?metrics:Obs.Registry.t -> ?trace:Obs.Trace.t ->
  ?on_frame:(int -> kind -> int -> unit) -> ?from:int -> string -> t * image
(** Open (creating if needed), walk the log once from LSN [from]
    (default 0; a frame boundary, such as an anchor {!checkpoint_at}
    accepts), physically truncate any torn tail after it, and return
    the surviving image: the file's bytes from [from] up to the end of
    the last valid frame, with [from] as its base.  Nothing before
    [from] is read, checked or cut.  The walk is
    {!Log_file.open_file}'s one scan with {!valid}, the same walk as
    {!walk}: it checks every frame's CRC in place and its payload's
    structure, stops at the same frame as {!scan} would from [from],
    and builds no record; it calls
    [on_frame lsn kind txn] for each surviving frame, oldest first
    ([txn] is [-1] for a checkpoint).  {!entries_from} decodes the
    image from any of those LSNs.  The count of truncated tail bytes is
    reported by {!truncated_at_open} rather than silently dropped.

    [metrics] receives the [wal.*] instruments (the bytes the open
    read in [wal.open_bytes], append/flush counters and byte totals,
    [wal.fsync_ns]/[wal.flush_ns] latency histograms); [trace] records
    a [wal.flush] span per durable flush.  Both default to the shared
    no-ops. *)

val checkpoint_at : string -> int -> bool
(** [checkpoint_at path lsn]: does the log file at [path] hold, whole
    and CRC-valid, the 9-byte Checkpoint frame this module writes at
    the positive LSN [lsn]?  Reads those bytes and nothing else; a
    missing file, or an [lsn] past its end, inside another frame or at
    another kind of frame, holds none. *)

val truncated_at_open : t -> int
(** Torn-tail bytes the opening scan found after the last valid frame
    and physically truncated (0 when the log was clean). *)

val append : t -> record -> int
(** Buffer a record; returns its LSN.  Not durable until {!flush}. *)

val flush : t -> unit
(** Write + fsync everything pending, through {!Log_file.flush}: the
    write is the {!Disk} site ["wal flush"], drawing a crash (which
    tears the pending bytes' tail), then a bit flip and a torn write
    (which corrupt the flushed image silently, to be detected by the
    next open's scan, which truncates the log there); the fsync is the
    site ["wal fsync"], drawing transient EIO, retried with a bounded
    budget before it escapes as {!Fault.Io_error} (the engine then
    degrades to read-only). *)

val flush_to : t -> int -> unit
(** Ensure durability up to (and including) the given LSN — the
    write-ahead barrier the buffer pool calls before a steal. *)

val reads_back_clean : t -> from:int -> bool
(** [reads_back_clean t ~from] reads the durable bytes from the frame
    boundary [from] back from the file and walks them: [true] when they
    are whole, CRC-valid frames up to {!durable_lsn}.  A silent write
    fault of an earlier {!flush} (a flipped bit, a torn write) makes it
    [false].  Not a fault site. *)

val next_lsn : t -> int
(** The LSN the next {!append} will get. *)

val durable_lsn : t -> int
(** Everything below this byte offset has been fsynced. *)

val close : t -> unit
(** Flush whatever is pending, then close the descriptor. *)

val abandon : t -> unit
(** Close the descriptor without flushing — pending records are lost,
    as in a crash. *)

val path : t -> string
(** The log file path. *)

val read_entries : string -> entry list
(** Read-only tolerant scan of a log file, every record decoded: for
    the callers that use record values (repair, the model checks,
    [lint commit]).  {!walk_file} answers the rest. *)

val scan : string -> entry list * int
(** Tolerant scan of an in-memory log image; returns the entries and the
    clean byte length (exposed for tests). *)

val walk :
  ?base:int -> string -> init:'a -> f:('a -> int -> kind -> int -> 'a) ->
  'a * int
(** [walk bytes ~init ~f] folds [f acc lsn kind txn] over the frames of
    [bytes], oldest first, and returns the result with the clean
    length.  It stops, exactly where {!scan} does, at the first frame
    that is incomplete, fails its CRC, or has a payload the decoder
    would reject, and decodes nothing: it reads only the kind byte and
    the transaction id ([-1] for a checkpoint).  With [base] the bytes
    start at that file offset: LSNs and the clean length are offsets
    in the file, not in [bytes]. *)

val walk_file :
  string -> init:'a -> f:('a -> int -> kind -> int -> 'a) -> 'a * int * int
(** {!walk} over the log file at a path, read without opening it for
    writing: the fold's result, the clean length, and the file's whole
    length (longer than the clean one by a torn or damaged tail).  A
    missing file walks as an empty log.  What the callers that need a
    log's length, its kinds or its idleness read instead of decoding
    it. *)

val entries_from : image -> int -> entry list
(** [entries_from image lsn] decodes the frames of [image] from the
    frame at [lsn] (at or after its base) up to the first damaged one —
    for the image {!open_log} returned, to its end. *)

val kind_of : record -> kind
(** A record's {!kind}. *)

val txn_of : record -> int
(** The transaction a record names; [-1] for a checkpoint. *)

type resync = { resync_at : int; resync_records : entry list }
(** Where valid frames resume after mid-log damage, and what they decode
    to.  A torn tail never resyncs (partial frame, zeros, end of file);
    a frame corrupted {e between} intact appends does — the frames after
    it are real history that the tolerant open would silently discard. *)

type report = {
  records : entry list;  (** the valid prefix, oldest-first *)
  clean_bytes : int;  (** length of the valid prefix *)
  total_bytes : int;  (** length of the whole image/file *)
  resync : resync option;
      (** present only when damage is followed by decodable frames *)
}
(** Everything a read-only scan can say about a log image: the surviving
    records, how much of the file they cover, and — when the file is
    longer — whether the damage looks like a tolerated torn tail or like
    mid-log corruption.  This is the input to {!Analysis.Wal_lint}. *)

val scan_report : string -> report
(** Full tolerant scan of an in-memory log image, with damage
    classification (byte-by-byte resync search after the valid prefix). *)

val frame_of_record : record -> string
(** The exact on-disk frame (exposed for tests and the offline
    termination protocol, which appends decided commits to a shard log
    without opening the engine). *)

val valid : string -> int -> int -> bool
(** [valid image off len]: is the [len]-byte payload at [off] one the
    decoder accepts?  The payload check of every {!Log_file} scan of a
    WAL image. *)

val to_model : record list -> Transactions.Recovery.log
(** Checkpoints are dropped, as are prepares — a prepared-but-undecided
    transaction is still a loser (presumed abort); compensation writes
    become ordinary model writes (the model replays them like any
    other). *)

val of_model : Transactions.Recovery.record -> record
(** The inverse bridge; model records never carry [Checkpoint]. *)

val record_to_string : record -> string
(** One-line rendering for [db status] and the tests. *)
