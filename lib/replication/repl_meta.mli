(** Durable replication metadata: the group descriptor, per-node epoch
    stamps, and the ack journal — all small CRC-framed files beside the
    database (reusing {!Storage.Log_file.frame}), scannable offline by
    [dbmeta] and {!Analysis.Replication_lint}.

    A replication group rooted at [base] is a file family: the primary's
    database at some node path, N-1 replica copies, one group descriptor
    ([base.repl]), one epoch stamp per node ([path.node]), and the ack
    journal ([base.acks]) recording every quorum-acknowledged commit —
    the durable trace of what was promised to clients, which is what
    makes "an acked commit was lost" a checkable file-level property
    (RP003) rather than a runtime assertion. *)

(** When a commit reports success: after a majority of nodes hold its
    bytes ([Quorum]) or as soon as it is locally durable ([Async], the
    lag-tolerant mode — its commits are deliberately not journaled,
    because they carry no survival promise). *)
type sync_mode = Quorum | Async

val sync_mode_to_string : sync_mode -> string
(** ["quorum"] or ["async"]. *)

val sync_mode_of_string : string -> sync_mode option
(** Inverse of {!sync_mode_to_string}; [None] on anything else. *)

type group = {
  epoch : int;  (** fencing epoch, bumped by every failover *)
  primary : int;  (** node id currently allowed to accept writes *)
  nodes : int;  (** total node count, primary included *)
  sync : sync_mode;  (** the group's commit-acknowledgement mode *)
}
(** The group descriptor stored at [base.repl] — which node is primary,
    under which epoch, over how many nodes. *)

val node_path : string -> int -> string
(** [node_path base k]: node 0 lives at [base] itself, node [k > 0] at
    [base.rK] (each with its WAL at [.wal], mirroring
    {!Storage.Engine.wal_path}). *)

val group_path : string -> string
(** [base.repl] — the group descriptor file. *)

val acks_path : string -> string
(** [base.acks] — the append-only quorum-ack journal. *)

val epoch_path : string -> string
(** [epoch_path node_path] is [node_path.node] — that node's durable
    epoch stamp and snapshot watermark. *)

val save_group : ?fault:Storage.Fault.t -> string -> group -> unit
(** Publish [base.repl] whole ({!Storage.Disk.replace}: temp file,
    fsync, rename), at the crash site ["repl group write"] of [fault],
    the shared crash budget. *)

val load_group : string -> group option
(** Read [base.repl]; [None] when absent or unreadable. *)

val discover : string -> int
(** How many nodes the file family at [base] has: the descriptor's
    count when one exists, otherwise 1 + the number of consecutive
    [base.rK] files from [k = 1] (0 when not a replicated base at
    all). *)

val save_node : ?fault:Storage.Fault.t -> string -> epoch:int -> snapshot_lsn:int -> unit
(** Publish the node's epoch stamp ([path.node]) whole, as
    {!save_group} does, at the crash site ["repl node write"]. *)

val load_node : string -> (int * int) option
(** [(epoch, snapshot_lsn)] from the node stamp; [None] when absent. *)

type ack = {
  txn : int;  (** the acknowledged transaction *)
  lsn : int;  (** primary WAL byte offset its Commit is durable below *)
  ack_epoch : int;  (** the epoch the ack was issued under *)
}
(** One quorum acknowledgement: transaction, its commit watermark, and
    the epoch that promised it.  Journal entries must be epoch-monotone
    (RP002) and their transactions present in the primary's WAL
    (RP003). *)

val open_journal : ?fault:Storage.Fault.t -> string -> Storage.Log_file.t
(** Open the ack journal [base.acks] for appending (creating it if
    needed): one scan, and the torn tail a crashed append left is cut,
    so the acks appended next are read back after the ones before it.
    [fault] is the injector the appends consult. *)

val append_ack : Storage.Log_file.t -> ack -> unit
(** Append one CRC-framed ack and fsync it — durable before the client
    hears [Committed], exactly like a commit record.  Fault site
    ["ack journal append"]; an injected crash there tears the frame. *)

val load_acks : string -> ack list
(** The journal's valid prefix, oldest first: the scan stops at a torn
    tail, or at the first frame that is not an ack. *)
