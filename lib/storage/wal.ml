(* The binary write-ahead log.  Append-only file of CRC-framed records;
   a record's LSN is its byte offset.  Appends are buffered in memory and
   made durable by [flush] (group commit); an injected crash during flush
   writes a torn prefix of the pending bytes, which the scanner must — and
   does — tolerate, mirroring a real torn tail after a power cut.

   record frame (little-endian):
     u32 crc32 of the payload
     u32 payload length
     payload:
       u8 kind (1 begin, 2 write, 3 commit, 4 abort, 5 checkpoint,
                6 compensation write, 7 prepare)
       begin/commit/abort/prepare: u32 txn
       write/compensation: u32 txn, u16 item length, item bytes,
                           i64 before-image, i64 after-image
       checkpoint: empty

   The record constructors deliberately mirror the in-memory recovery
   model [Transactions.Recovery.record]; [to_model]/[of_model] are the
   bridge, round-trip tested in test_storage.ml. *)

type record =
  | Begin of int
  | Write of { txn : int; item : string; before : int; after : int; compensation : bool }
  | Commit of int
  | Abort of int
  | Checkpoint
  | Prepare of int

type entry = { lsn : int; record : record }

(* --- codec -------------------------------------------------------------- *)

let payload_of_record r =
  let buf = Buffer.create 32 in
  (match r with
  | Begin t ->
      Buffer.add_uint8 buf 1;
      Buffer.add_int32_le buf (Int32.of_int t)
  | Write { txn; item; before; after; compensation } ->
      Buffer.add_uint8 buf (if compensation then 6 else 2);
      Buffer.add_int32_le buf (Int32.of_int txn);
      if String.length item > 0xffff then invalid_arg "Wal: item name too long";
      Buffer.add_uint16_le buf (String.length item);
      Buffer.add_string buf item;
      Buffer.add_int64_le buf (Int64.of_int before);
      Buffer.add_int64_le buf (Int64.of_int after)
  | Commit t ->
      Buffer.add_uint8 buf 3;
      Buffer.add_int32_le buf (Int32.of_int t)
  | Abort t ->
      Buffer.add_uint8 buf 4;
      Buffer.add_int32_le buf (Int32.of_int t)
  | Checkpoint -> Buffer.add_uint8 buf 5
  | Prepare t ->
      Buffer.add_uint8 buf 7;
      Buffer.add_int32_le buf (Int32.of_int t));
  Buffer.contents buf

(* The framing layer is payload-agnostic: the coordinator log of
   lib/distributed reuses [frame]/[scan_frames] with its own payloads. *)
let frame payload =
  let buf = Buffer.create (String.length payload + 8) in
  Buffer.add_int32_le buf (Int32.of_int (Support.Crc32.string payload));
  Buffer.add_int32_le buf (Int32.of_int (String.length payload));
  Buffer.add_string buf payload;
  Buffer.contents buf

let frame_of_record r = frame (payload_of_record r)

let u32 s pos = Int32.to_int (String.get_int32_le s pos) land 0xFFFFFFFF

(* The one frame loop every scan below runs on.  Fold [f acc pos len]
   over the frames of [image] from [from], stopping (not failing) at the
   first frame that is incomplete, fails its CRC, or whose payload
   [valid] rejects: the torn tail.  Returns the accumulator and the
   clean length.  The CRC is checked in place, without copying the
   payload. *)
let fold_frames ~valid image ~from ~init ~f =
  let n = String.length image in
  let rec go pos acc =
    if pos + 8 > n then (acc, pos)
    else
      let len = u32 image (pos + 4) in
      if
        len > n - pos - 8
        || Support.Crc32.string ~pos:(pos + 8) ~len image <> u32 image pos
        || not (valid image (pos + 8) len)
      then (acc, pos)
      else go (pos + 8 + len) (f acc pos len)
  in
  go from init

let scan_frames image =
  let frames, clean =
    fold_frames image
      ~valid:(fun _ _ _ -> true)
      ~from:0 ~init:[]
      ~f:(fun acc pos len -> (pos, String.sub image (pos + 8) len) :: acc)
  in
  (List.rev frames, clean)

let frames_of_file path =
  if Sys.file_exists path then scan_frames (Support.Io.read_file path)
  else ([], 0)

(* Exactly the payloads the decoder below accepts, judged from the kind
   byte and, for a write, the item length: a txn-carrying kind needs its
   u32, a write its fixed fields plus the item; trailing bytes are
   allowed, unknown kinds are not. *)
let well_formed image off len =
  len >= 1
  &&
  match Char.code image.[off] with
  | 1 | 3 | 4 | 7 -> len >= 5
  | 2 | 6 -> len >= 7 && len >= 23 + String.get_uint16_le image (off + 5)
  | 5 -> true
  | _ -> false

type kind = [ `Begin | `Write | `Commit | `Abort | `Checkpoint | `Prepare ]

(* Header reads of a frame at [lsn] that passed [well_formed]. *)
let kind_at image lsn : kind =
  match Char.code image.[lsn + 8] with
  | 1 -> `Begin
  | 2 | 6 -> `Write
  | 3 -> `Commit
  | 4 -> `Abort
  | 5 -> `Checkpoint
  | _ -> `Prepare

let txn_at image lsn = if image.[lsn + 8] = '\005' then -1 else u32 image (lsn + 9)

let record_at image lsn =
  let off = lsn + 8 and txn = txn_at image lsn in
  match Char.code image.[off] with
  | 1 -> Begin txn
  | (2 | 6) as k ->
      let len = String.get_uint16_le image (off + 5) in
      let at = off + 7 + len in
      Write
        {
          txn;
          item = String.sub image (off + 7) len;
          before = Int64.to_int (String.get_int64_le image at);
          after = Int64.to_int (String.get_int64_le image (at + 8));
          compensation = k = 6;
        }
  | 3 -> Commit txn
  | 4 -> Abort txn
  | 5 -> Checkpoint
  | _ -> Prepare txn

let kind_of : record -> kind = function
  | Begin _ -> `Begin
  | Write _ -> `Write
  | Commit _ -> `Commit
  | Abort _ -> `Abort
  | Checkpoint -> `Checkpoint
  | Prepare _ -> `Prepare

let txn_of = function
  | Begin t | Commit t | Abort t | Prepare t | Write { txn = t; _ } -> t
  | Checkpoint -> -1

let walk image ~init ~f =
  fold_frames ~valid:well_formed image ~from:0 ~init
    ~f:(fun acc lsn _ -> f acc lsn (kind_at image lsn) (txn_at image lsn))

(* Decode the frames from [from] to the first damaged one. *)
let decode image ~from =
  let entries, clean =
    fold_frames ~valid:well_formed image ~from ~init:[]
      ~f:(fun acc lsn _ -> { lsn; record = record_at image lsn } :: acc)
  in
  (List.rev entries, clean)

let scan image = decode image ~from:0
let entries_from image lsn = fst (decode image ~from:lsn)

(* --- read-only scanning: the offline verifier's view --------------------- *)

type resync = { resync_at : int; resync_records : entry list }

type report = {
  records : entry list;
  clean_bytes : int;
  total_bytes : int;
  resync : resync option;
}

(* After the scan stops at damage, slide forward byte by byte looking for
   a point where valid frames resume.  A torn tail (partial frame, zeros,
   nothing after) never resyncs; a frame corrupted mid-log — with intact
   appends after it — does, and that distinction is exactly what
   separates tolerated crash damage from silent data loss. *)
let find_resync image clean =
  let n = String.length image in
  let rec search pos =
    if pos + 8 > n then None
    else
      match decode image ~from:pos with
      | _, stop when stop = pos -> search (pos + 1)
      | resync_records, _ -> Some { resync_at = pos; resync_records }
  in
  search (clean + 1)

let scan_report image =
  let records, clean_bytes = scan image in
  let total_bytes = String.length image in
  let resync =
    if clean_bytes < total_bytes then find_resync image clean_bytes else None
  in
  { records; clean_bytes; total_bytes; resync }

let report_file path =
  if Sys.file_exists path then scan_report (Support.Io.read_file path)
  else { records = []; clean_bytes = 0; total_bytes = 0; resync = None }

(* --- the log file ------------------------------------------------------- *)

type metrics = {
  m_appends : Obs.Registry.Counter.t;
  m_append_bytes : Obs.Registry.Counter.t;
  m_flushes : Obs.Registry.Counter.t;
  m_flush_bytes : Obs.Registry.Counter.t;
  m_retries : Obs.Registry.Counter.t;
  m_fsync_ns : Obs.Histogram.t;
  m_flush_ns : Obs.Histogram.t;
}

let make_metrics registry =
  let counter = Obs.Registry.counter registry in
  {
    m_appends = counter ~unit:"records" ~help:"records appended" "wal.appends";
    m_append_bytes =
      counter ~unit:"bytes" ~help:"framed bytes appended" "wal.append_bytes";
    m_flushes =
      counter ~unit:"flushes" ~help:"group-commit flushes made durable"
        "wal.flushes";
    m_flush_bytes =
      counter ~unit:"bytes" ~help:"bytes made durable by flushes"
        "wal.flush_bytes";
    m_retries =
      counter ~help:"transient-EIO retries that eventually succeeded"
        "wal.io_retries";
    m_fsync_ns =
      Obs.Registry.histogram registry ~help:"fsync latency per flush"
        "wal.fsync_ns";
    m_flush_ns =
      Obs.Registry.histogram registry
        ~help:"whole-flush latency (write + fsync)" "wal.flush_ns";
  }

type t = {
  path : string;
  fd : Unix.file_descr;
  fault : Fault.t;
  metrics : metrics;
  trace : Obs.Trace.t;
  pending : Buffer.t;  (* appended but not yet durable *)
  mutable durable : int;  (* bytes on disk *)
  mutable appends : int;
  mutable flushes : int;
  mutable retried : int;  (* transient-EIO retries that eventually won *)
  truncated : int;  (* torn-tail bytes dropped by the opening scan *)
}

let max_retries = 8

let really_write fd s pos len =
  let written = ref 0 in
  while !written < len do
    written :=
      !written
      + Unix.write_substring fd s (pos + !written) (len - !written)
  done

let open_log ?(fault = Fault.create ()) ?(metrics = Obs.Registry.noop)
    ?(trace = Obs.Trace.noop) ?(on_frame = fun _ _ _ -> ()) path =
  let metrics = make_metrics metrics in
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT ] 0o644 in
  let image = Support.Io.read_file path in
  let (), clean =
    walk image ~init:() ~f:(fun () lsn kind txn -> on_frame lsn kind txn)
  in
  (* drop the torn tail so new appends start on a clean frame boundary *)
  let torn = String.length image - clean in
  if torn > 0 then Unix.ftruncate fd clean;
  ignore (Unix.lseek fd clean Unix.SEEK_SET);
  ( {
      path;
      fd;
      fault;
      metrics;
      trace;
      pending = Buffer.create 1024;
      durable = clean;
      appends = 0;
      flushes = 0;
      retried = 0;
      truncated = torn;
    },
    if torn > 0 then String.sub image 0 clean else image )

let append t record =
  let lsn = t.durable + Buffer.length t.pending in
  let frame = frame_of_record record in
  Buffer.add_string t.pending frame;
  t.appends <- t.appends + 1;
  Obs.Registry.Counter.incr t.metrics.m_appends;
  Obs.Registry.Counter.add t.metrics.m_append_bytes (String.length frame);
  lsn

let next_lsn t = t.durable + Buffer.length t.pending
let durable_lsn t = t.durable

(* Each retry draws afresh, so a sub-certain failure probability always
   yields eventual success; a fault surviving every retry escapes as
   [Fault.Io_error] — the engine then degrades to read-only. *)
let with_transient_retries t ~at f =
  let rec attempt n =
    if Fault.transient t.fault ~at then
      if n >= max_retries then raise (Fault.Io_error at)
      else begin
        t.retried <- t.retried + 1;
        Obs.Registry.Counter.incr t.metrics.m_retries;
        attempt (n + 1)
      end
    else f ()
  in
  attempt 0

let flush_body t =
  begin
    let data = Buffer.contents t.pending
    and len = Buffer.length t.pending in
    Fault.io t.fault ~at:"wal flush" ~on_crash:(fun () ->
        (* the torn tail: half the pending bytes reach the platter *)
        really_write t.fd data 0 (len / 2));
    let data =
      match Fault.bit_flip t.fault ~at:"wal flush" ~len with
      | None -> data
      | Some bit ->
          (* one bit of the flushed image corrupted in flight: the frame
             fails its CRC at the next open, truncating the log there —
             stolen pages carrying lost-suffix LSNs are then quarantined
             and rebuilt by the engine *)
          let dirty = Bytes.of_string data in
          let byte = bit / 8 and mask = 1 lsl (bit mod 8) in
          Bytes.set_uint8 dirty byte (Bytes.get_uint8 dirty byte lxor mask);
          Bytes.unsafe_to_string dirty
    in
    if Fault.torn_write t.fault ~at:"wal flush" then begin
      (* a silent torn write: the tail half never reaches the platter.
         The hole reads back as zeros, so the next open stops its scan
         there and the log's suffix is lost. *)
      really_write t.fd data 0 (len / 2);
      ignore (Unix.lseek t.fd (t.durable + len) Unix.SEEK_SET)
    end
    else really_write t.fd data 0 len;
    (match
       Obs.Histogram.time t.metrics.m_fsync_ns (fun () ->
           with_transient_retries t ~at:"wal fsync" (fun () -> Unix.fsync t.fd))
     with
    | () -> ()
    | exception (Fault.Io_error _ as e) ->
        (* after a failed fsync the written bytes must be treated as
           lost, not merely unconfirmed (the fsyncgate lesson): truncate
           back to the durable prefix so the records we are about to
           report as non-durable cannot silently resurface as winners at
           the next open, and rewind so a later retry of the whole flush
           rewrites in place instead of appending a duplicate image *)
        Unix.ftruncate t.fd t.durable;
        ignore (Unix.lseek t.fd t.durable Unix.SEEK_SET);
        raise e);
    t.durable <- t.durable + len;
    Buffer.clear t.pending;
    t.flushes <- t.flushes + 1;
    Obs.Registry.Counter.incr t.metrics.m_flushes;
    Obs.Registry.Counter.add t.metrics.m_flush_bytes len
  end

let flush t =
  if Buffer.length t.pending > 0 then
    let bytes = string_of_int (Buffer.length t.pending) in
    Obs.Trace.with_span t.trace ~args:[ ("bytes", bytes) ] "wal.flush"
      (fun () -> Obs.Histogram.time t.metrics.m_flush_ns (fun () -> flush_body t))

let flush_to t lsn = if lsn >= t.durable then flush t

let close t =
  flush t;
  Unix.close t.fd

let abandon t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let stats t = (t.appends, t.flushes, t.durable)
let retries t = t.retried
let truncated_at_open t = t.truncated
let path t = t.path

let read_entries path =
  if Sys.file_exists path then fst (scan (Support.Io.read_file path)) else []

(* --- bridge to the in-memory recovery model ----------------------------- *)

let to_model records =
  List.filter_map
    (function
      | Begin t -> Some (Transactions.Recovery.Begin t)
      | Write { txn; item; before; after; _ } ->
          Some (Transactions.Recovery.Write (txn, item, before, after))
      | Commit t -> Some (Transactions.Recovery.Commit t)
      | Abort t -> Some (Transactions.Recovery.Abort t)
      (* A prepared-but-undecided txn is still a loser in the model:
         presumed abort.  The distributed model check adds synthetic
         commits for txns whose coordinator DECIDE survived. *)
      | Prepare _ -> None
      | Checkpoint -> None)
    records

let of_model = function
  | Transactions.Recovery.Begin t -> Begin t
  | Transactions.Recovery.Write (txn, item, before, after) ->
      Write { txn; item; before; after; compensation = false }
  | Transactions.Recovery.Commit t -> Commit t
  | Transactions.Recovery.Abort t -> Abort t

let record_to_string = function
  | Begin t -> Printf.sprintf "begin(%d)" t
  | Write { txn; item; before; after; compensation } ->
      Printf.sprintf "%s(%d, %s, %d -> %d)"
        (if compensation then "clr" else "write")
        txn item before after
  | Commit t -> Printf.sprintf "commit(%d)" t
  | Abort t -> Printf.sprintf "abort(%d)" t
  | Checkpoint -> "checkpoint"
  | Prepare t -> Printf.sprintf "prepare(%d)" t
