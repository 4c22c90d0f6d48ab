(* An append-only file of CRC frames, and the one durable-append
   protocol every log in the system runs on: the write-ahead log, the
   coordinator's 2PC log, the offline Commit resolution, the quorum-ack
   journal and a replica's log copy.  The callers bring a payload check
   and their fault-site names; the open scan, the torn-tail cut and the
   fsync-failure truncation live here, once, over a [Disk.t], which
   draws the faults.

   frame (little-endian):
     u32 crc32 of the payload
     u32 payload length
     payload *)

type t = {
  file : Disk.t;
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

let open_file ?fault ?retries ~valid ?(from = 0) ?(on_frame = fun _ _ -> ())
    path =
  let file = Disk.open_file ?fault ?retries ~create:true path in
  let image = Support.Io.read_span path ~from ~len:max_int in
  let (), clean =
    fold ~valid image ~from:0 ~init:() ~f:(fun () pos _ -> on_frame image pos)
  in
  (* the torn-tail cut; a clean file is not touched, not even its mtime *)
  let torn = String.length image - clean and durable = from + clean in
  if torn > 0 then Disk.truncate file durable;
  ( { file; pending = Buffer.create 1024; durable; torn },
    if torn > 0 then String.sub image 0 clean else image )

let append t bytes =
  let off = t.durable + Buffer.length t.pending in
  Buffer.add_string t.pending bytes;
  off

(* The pending bytes go at the durable end, so a short write leaves a
   hole there and the next flush writes past it. *)
let flush ?at ?draws ?fsync_at ?fsync_ns t =
  let len = Buffer.length t.pending in
  if len > 0 then begin
    Disk.write t.file ?at ?draws ~off:t.durable (Buffer.to_bytes t.pending);
    let fsync () = Disk.fsync t.file ?at:fsync_at ~draws:[ `Eio ] () in
    (match
       match fsync_ns with
       | Some h -> Obs.Histogram.time h fsync
       | None -> fsync ()
     with
    | () -> ()
    | exception (Fault.Io_error _ as e) ->
        (* fsyncgate: bytes written but not synced must be treated as
           lost, so they cannot resurface as history at the next open;
           a retried flush writes them at the durable end again *)
        Disk.truncate t.file t.durable;
        raise e);
    t.durable <- t.durable + len;
    Buffer.clear t.pending
  end

let cut t n =
  Buffer.clear t.pending;
  Disk.truncate t.file n;
  t.durable <- n

let torn_at_open t = t.torn
let durable t = t.durable
let next t = t.durable + Buffer.length t.pending
let path t = Disk.path t.file
let close t = Disk.close t.file
let abandon t = Disk.abandon t.file
