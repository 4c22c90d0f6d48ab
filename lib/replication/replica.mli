(** One replica node: a verbatim byte copy of the primary's WAL, and
    nothing else.

    The replica's log is {e physically} identical to a prefix of the
    primary's — shipped chunks are appended at their exact primary byte
    offsets, so the replica's durable LSN is directly comparable to the
    primary's and "caught up" is byte equality, not a protocol state.
    The replica keeps no in-memory state of the records it holds: the
    log and the db image {e are} the replica.  Promotion needs no
    special machinery: opening a {!Storage.Engine} over the replica's
    files {e is} the promotion, and its restart recovery the redo,
    because the snapshot db image plus verbatim log prefix are
    indistinguishable from a crashed primary's.  What the replica learns
    of log bytes (their clean length, whether they carry a Checkpoint,
    how many Commits they hold) comes from one {!Storage.Wal.walk} of
    frame headers; no record is decoded. *)

type t
(** An attached replica: its files, durable watermark and epoch. *)

type receipt =
  | Acked of int  (** appended; the new durable byte offset *)
  | Stale_epoch  (** sender's epoch is behind ours — write fenced off *)
  | Gap of int  (** chunk starts past our tail; resend from this offset *)
  | Snapshot_needed
      (** the chunk carries a Checkpoint, which may only arrive through
          the atomic snapshot path — streaming it would let a crash
          leave the log claiming pages the node never received (the
          RP004 gap) *)
(** What a replica answers to one shipped chunk. *)

val attach :
  ?metrics:Obs.Registry.t -> fault:Storage.Fault.t -> node_id:int ->
  epoch:int -> string -> t
(** Attach to (or create) the replica files at a node path: open its
    log copy as a {!Storage.Log_file}, which cuts any torn tail, and
    load the node's durable epoch stamp ([epoch] seeds a stamp-less
    node).  Registers the [repl.apply_commits] / [repl.stale_rejects]
    counters on [metrics]; the Commit frames of the log found here
    count toward the first. *)

val receive : t -> epoch:int -> start:int -> chunk:string -> receipt
(** Append one shipped chunk of primary WAL bytes beginning at primary
    offset [start], counting its Commit frames.  Chunks from a lower
    epoch are refused ([Stale_epoch] — the fencing check); a higher
    epoch is adopted durably first.  Overlap with already-held bytes is skipped
    (retries are idempotent); a chunk starting past the tail answers
    [Gap].  The append is fault-injected (site ["replica K wal
    append"]) — an injected crash tears the chunk's tail exactly like
    a crashed WAL flush. *)

val install_snapshot :
  t -> epoch:int -> db_image:string option -> wal_image:string ->
  snapshot_lsn:int -> unit
(** Full catch-up: replace the replica's database file with the shipped
    page image (remove it when the primary has none yet), one
    {!Storage.Disk.replace} at the crash site ["replica K snapshot"],
    the install's only fault site; then replace its
    WAL with the shipped prefix, stamp epoch + snapshot watermark, and
    count the prefix's Commit frames.  This is the page-ship path —
    used for fresh nodes, diverged nodes (a deposed primary rejoining),
    and chunks that contain a Checkpoint (whose redo-start contract needs
    the db image that accompanied it). *)

val durable_lsn : t -> int
(** Byte length of the verbatim WAL prefix this replica holds. *)

val epoch : t -> int
(** The node's durable fencing epoch. *)

val snapshot_lsn : t -> int
(** The watermark of the last installed db snapshot (0 when the node
    has only ever streamed the log). *)

val node_id : t -> int
(** The node's id within its group. *)

val path : t -> string
(** The node path (db file; WAL at [.wal], stamp at [.node]). *)

val close : t -> unit
(** Close the node's log copy; a replica holds it open from attach (or
    from its first chunk, when it had no log yet). *)

val abandon : t -> unit
(** Close the log copy's descriptor as a crash would. *)
