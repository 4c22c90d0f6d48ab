(** Every durable file operation, and every disk fault.  The pager,
    {!Log_file} (and so the WAL, the 2PC logs, the ack journal and a
    replica's log copy) and the replication files keep their formats
    and their site names; opening, reading, writing, syncing, cutting
    and publishing a file happen here, and nowhere else calls the
    {!Fault} disk hooks or the [Unix] file API.

    A call that is a fault site names it with [~at]; the operation and
    its [~draws] give the kinds it draws, docs/FAULTS.md's "kinds
    drawn": a read site draws eio, a write site a crash and the
    [~draws] it lists, an fsync site the [~draws] it lists, and a
    {!replace} a crash.  A call without [~at] is not a site: it draws
    nothing and counts in no crash budget.  Draws happen in a fixed
    order — crash, then flip, then torn for a write; crash, then eio
    for an fsync — so a seeded run draws the same stream whichever
    module asks.

    The partial effects, which a crash sweep sees:
    - a crash at a write writes the first half of its bytes, unless the
      write is [~atomic] (sector-atomic: a crash writes nothing);
    - a crash at an fsync tears, for each write since the last fsync
      (newest first, atomic ones aside), the tail half to zeros when a
      torn draw at the fsync's site fires;
    - a flipped write puts one wrong bit on disk (the caller's buffer
      keeps its bytes), and a torn one writes only its first half;
    - an eio draw fails the attempt: {!Fault.with_retries} draws again,
      counting each retry in the file's [retries] counter, and
      {!Fault.Io_error} escapes when the retries give up. *)

type t
(** One open file: its descriptor, path, injector and retry counter,
    and the writes made since its last fsync. *)

val create :
  ?fault:Fault.t -> ?retries:Obs.Registry.Counter.t -> string -> t
(** Open a file for reading and writing, creating it or truncating it
    to empty.  [fault] is the injector every site of the file consults
    (an unarmed one by default); [retries] counts the eio retries that
    its reads and fsyncs make. *)

val open_file :
  ?fault:Fault.t -> ?retries:Obs.Registry.Counter.t -> ?create:bool ->
  string -> t
(** Open an existing file for reading and writing, or create an empty
    one when [create] (default [false]); [Unix.Unix_error] when it is
    missing and [create] is not set.  [fault] and [retries] as for
    {!create}. *)

val read : t -> ?at:string -> off:int -> Bytes.t -> int
(** [read t ~off buf] fills [buf] from byte [off] and returns how many
    bytes it got: fewer than [Bytes.length buf] only at the end of the
    file.  At a site [at] each attempt first draws eio. *)

val write :
  t -> ?at:string -> ?draws:[ `Flip | `Torn ] list -> ?atomic:bool -> off:int ->
  Bytes.t -> unit
(** [write t ~off buf] writes [buf] at byte [off], leaving [buf]
    unchanged.  At a site [at] it draws a crash, then [draws] (none by
    default).  A torn write past the end of the file leaves a hole that
    reads back as zeros. *)

val fsync : t -> ?at:string -> ?draws:[ `Crash | `Eio ] list -> unit -> unit
(** Make every write so far durable.  At a site [at] it draws [draws]
    (none by default). *)

val truncate : t -> int -> unit
(** Cut the file (or extend it with zeros) to a length; not a site. *)

val replace : ?fault:Fault.t -> at:string -> string -> string option -> unit
(** [replace ~at path (Some bytes)] publishes [bytes] as the whole file
    at [path]: written and fsynced under the name [path ^ ".tmp"], then
    renamed over [path], so a reader sees the old file or the new one.
    [replace ~at path None] removes the file, if there is one.  It is
    one crash site [at] of [fault] (none without [fault]), drawn before
    anything is touched, so a crash leaves the old file and no temp
    file behind.  No directory is fsynced. *)

val close : t -> unit
(** Close the descriptor; nothing is written. *)

val abandon : t -> unit
(** Close the descriptor, ignoring errors, as a crash would. *)

val path : t -> string
(** The path the file was opened at. *)

val fault : t -> Fault.t
(** The injector the file's sites consult. *)
