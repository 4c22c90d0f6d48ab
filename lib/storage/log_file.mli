(** An append-only file of CRC frames ([u32 crc | u32 len | payload],
    little-endian): the one durable-append path under the write-ahead
    log, the coordinator's 2PC log, the offline Commit resolution of a
    shard log, the quorum-ack journal and a replica's log copy.  Each
    of those owns only its payload codec; this module owns four rules:

    - {b open}: one validating scan with the caller's payload check,
      then the torn tail — everything after the last frame that is
      complete, passes its CRC and passes the check — is cut off, so
      appends resume on a frame boundary;
    - {b append}: frames go to a pending buffer, not to the file;
    - {b flush}: {!Fault.io} at the caller's crash site (an injected
      crash writes half the pending bytes: the torn tail the next open
      cuts), one write, and an fsync under {!Fault.with_retries};
    - {b fsync failure}: when the retries give up, the file is cut back
      to its durable length, because bytes written but not synced are
      lost, not merely unconfirmed.

    An open file holds a descriptor until {!close} or {!abandon}. *)

type t
(** An open log file: its descriptor, durable length and pending
    bytes. *)

val frame : string -> string
(** The on-disk frame of a payload. *)

val fold :
  valid:(string -> int -> int -> bool) -> string -> from:int -> init:'a ->
  f:('a -> int -> int -> 'a) -> 'a * int
(** [fold ~valid image ~from ~init ~f] folds [f acc offset len] over the
    frames of [image] from offset [from], oldest first, and returns the
    result with the clean length: the end of the last frame taken.  It
    stops, without failing, at the first frame that is incomplete,
    fails its CRC, or whose payload [valid image off len] rejects; the
    CRC is checked in place and nothing is copied. *)

val payloads :
  ?valid:(string -> int -> int -> bool) -> string -> (int * string) list * int
(** The [(offset, payload)] pairs {!fold} takes from an image, and its
    clean length.  [valid] defaults to accepting every payload. *)

val read_payloads :
  ?valid:(string -> int -> int -> bool) -> string -> (int * string) list
(** {!payloads} over a file, read-only; a missing file has none. *)

val open_file :
  ?fault:Fault.t -> valid:(string -> int -> int -> bool) ->
  ?on_frame:(string -> int -> unit) -> string -> t * string
(** Open the file at a path (creating it if needed), scan it once with
    [valid], calling [on_frame image offset] for every frame kept, cut
    the torn tail, and return the clean image: the file's bytes up to
    the end of the last frame kept.  [fault] is the injector {!flush}
    consults; it defaults to an unarmed one. *)

val append : t -> string -> int
(** Buffer bytes (frames, or a verbatim chunk of another log) and
    return the offset they will land at.  Not durable until {!flush}. *)

val flush :
  ?at:string -> ?fsync_at:string -> ?damage:(string -> string * int) ->
  ?on_retry:(unit -> unit) -> ?fsync_ns:Obs.Histogram.t -> t -> unit
(** Make every pending byte durable; nothing happens when none is
    pending.  In order:
    - [at]: {!Fault.io} at this crash site, whose crash writes the first
      half of the pending bytes.  Without [at] the write is not a fault
      site of its own;
    - [damage data] returns the image to write and how many of its bytes
      reach the disk (default: all).  The log advances past the full
      length either way, so a short write leaves a hole of zeros;
    - the fsync, timed into [fsync_ns].  With [fsync_at] it runs under
      {!Fault.with_retries} at that site, calling [on_retry] per retry;
      when the retries give up, the file is cut back to its durable
      length, the pending bytes stay pending, and {!Fault.Io_error}
      escapes.  Without [fsync_at] it draws no transient fault. *)

val cut : t -> int -> unit
(** Truncate the file to the given length and append from there,
    dropping anything pending. *)

val torn_at_open : t -> int
(** Bytes the open cut off as a torn tail (0 when the file was clean). *)

val durable : t -> int
(** The file's length once every flush so far has completed. *)

val next : t -> int
(** The offset the next {!append} will return. *)

val path : t -> string

val close : t -> unit
(** Close the descriptor; pending bytes are dropped, so flush first. *)

val abandon : t -> unit
(** Close the descriptor, ignoring errors, as a crash would. *)
