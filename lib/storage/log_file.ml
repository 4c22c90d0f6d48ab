(* An append-only file of CRC frames, and the one durable-append
   protocol every log in the system runs on: the write-ahead log, the
   coordinator's 2PC log, the offline Commit resolution, the quorum-ack
   journal and a replica's log copy.  The callers bring a payload check
   and their fault-site names; the open scan, the torn-tail cut, the
   crash tear, the fsync retry and the fsync-failure truncation live
   here, once.

   frame (little-endian):
     u32 crc32 of the payload
     u32 payload length
     payload *)

type t = {
  path : string;
  fd : Unix.file_descr;
  fault : Fault.t;
  pending : Buffer.t;  (* appended but not yet durable *)
  mutable durable : int;  (* bytes on disk once the last flush completed *)
  torn : int;  (* torn-tail bytes the open cut off *)
}

let frame payload =
  let buf = Buffer.create (String.length payload + 8) in
  Buffer.add_int32_le buf (Int32.of_int (Support.Crc32.string payload));
  Buffer.add_int32_le buf (Int32.of_int (String.length payload));
  Buffer.add_string buf payload;
  Buffer.contents buf

let u32 s pos = Int32.to_int (String.get_int32_le s pos) land 0xFFFFFFFF

(* The one frame loop every scan runs on. *)
let fold ~valid image ~from ~init ~f =
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

let any _ _ _ = true

let payloads ?(valid = any) image =
  let frames, clean =
    fold ~valid image ~from:0 ~init:[] ~f:(fun acc pos len ->
        (pos, String.sub image (pos + 8) len) :: acc)
  in
  (List.rev frames, clean)

let read_payloads ?valid path =
  if Sys.file_exists path then
    fst (payloads ?valid (Support.Io.read_file path))
  else []

(* Truncate to [n] and write from there: the fsync-failure rollback and
   a caller's [cut]. *)
let truncate t n =
  Unix.ftruncate t.fd n;
  ignore (Unix.lseek t.fd n Unix.SEEK_SET : int);
  t.durable <- n

let open_file ?(fault = Fault.create ()) ~valid ?(from = 0)
    ?(on_frame = fun _ _ -> ()) path =
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT ] 0o644 in
  let image = Support.Io.read_span path ~from ~len:max_int in
  let (), clean =
    fold ~valid image ~from:0 ~init:() ~f:(fun () pos _ -> on_frame image pos)
  in
  (* the torn-tail cut; a clean file is not touched, not even its mtime *)
  let torn = String.length image - clean and durable = from + clean in
  if torn > 0 then Unix.ftruncate fd durable;
  ignore (Unix.lseek fd durable Unix.SEEK_SET : int);
  ( { path; fd; fault; pending = Buffer.create 1024; durable; torn },
    if torn > 0 then String.sub image 0 clean else image )

let append t bytes =
  let off = t.durable + Buffer.length t.pending in
  Buffer.add_string t.pending bytes;
  off

(* [Unix.write_substring] loops until every byte is written. *)
let write t data len = ignore (Unix.write_substring t.fd data 0 len : int)

let flush ?at ?fsync_at ?(damage = fun data -> (data, String.length data))
    ?(on_retry = ignore) ?fsync_ns t =
  let len = Buffer.length t.pending in
  if len > 0 then begin
    let data = Buffer.contents t.pending in
    Option.iter
      (fun at ->
        Fault.io t.fault ~at ~on_crash:(fun () ->
            (* the torn tail: half the pending bytes reach the platter *)
            write t data (len / 2)))
      at;
    let data, reached = damage data in
    write t data reached;
    if reached < len then
      ignore (Unix.lseek t.fd (t.durable + len) Unix.SEEK_SET : int);
    let fsync () =
      match fsync_at with
      | None -> Unix.fsync t.fd
      | Some at ->
          Fault.with_retries t.fault ~at ~on_retry (fun () -> Unix.fsync t.fd)
    in
    (match
       match fsync_ns with
       | Some h -> Obs.Histogram.time h fsync
       | None -> fsync ()
     with
    | () -> ()
    | exception (Fault.Io_error _ as e) ->
        (* fsyncgate: bytes written but not synced must be treated as
           lost, so they cannot resurface as history at the next open;
           rewinding also makes a retried flush rewrite in place *)
        truncate t t.durable;
        raise e);
    t.durable <- t.durable + len;
    Buffer.clear t.pending
  end

let cut t n =
  Buffer.clear t.pending;
  truncate t n

let torn_at_open t = t.torn
let durable t = t.durable
let next t = t.durable + Buffer.length t.pending
let path t = t.path
let close t = Unix.close t.fd
let abandon t = try Unix.close t.fd with Unix.Unix_error _ -> ()
