(* The one module that touches durable files.  Every offset is
   explicit: a write or read seeks first, so no caller depends on where
   the descriptor was left.  A site's draws come in a fixed order
   (crash, flip, torn for a write; crash, eio for an fsync), which is
   what keeps a seeded fault run's RNG stream the same whichever module
   makes the call. *)

type t = {
  path : string;
  fd : Unix.file_descr;
  fault : Fault.t;
  retries : Obs.Registry.Counter.t option;
  mutable unsynced : (int * int) list;
      (* (offset, length) of the tearable writes since the last fsync,
         newest first *)
}

let openfile ?(fault = Fault.create ()) ?retries flags path =
  let fd = Unix.openfile path (Unix.O_RDWR :: flags) 0o644 in
  { path; fd; fault; retries; unsynced = [] }

let create ?fault ?retries path =
  openfile ?fault ?retries [ Unix.O_CREAT; Unix.O_TRUNC ] path

let open_file ?fault ?retries ?(create = false) path =
  openfile ?fault ?retries (if create then [ Unix.O_CREAT ] else []) path

let close t = Unix.close t.fd
let abandon t = try Unix.close t.fd with Unix.Unix_error _ -> ()
let path t = t.path
let fault t = t.fault
let truncate t n = Unix.ftruncate t.fd n

(* [Unix.write] loops until every byte is written. *)
let pwrite t ~off buf len =
  ignore (Unix.lseek t.fd off Unix.SEEK_SET : int);
  ignore (Unix.write t.fd buf 0 len : int)

(* The eio draw before an attempt, retried under the injector's one
   loop; each retry is counted in the file's counter. *)
let attempt t ?at f =
  match at with
  | Some at ->
      Fault.with_retries t.fault ~at f ~on_retry:(fun () ->
          Option.iter Obs.Registry.Counter.incr t.retries)
  | None -> f ()

let read t ?at ~off buf =
  let len = Bytes.length buf in
  attempt t ?at (fun () ->
      ignore (Unix.lseek t.fd off Unix.SEEK_SET : int);
      let rec go got =
        if got = len then got
        else match Unix.read t.fd buf got (len - got) with 0 -> got | n -> go (got + n)
      in
      go 0)

let write t ?at ?(draws = []) ?(atomic = false) ~off buf =
  let len = Bytes.length buf in
  let image, reached =
    match at with
    | None -> (buf, len)
    | Some at ->
        Fault.io t.fault ~at ~on_crash:(fun () ->
            if not atomic then pwrite t ~off buf (len / 2));
        let flip =
          if List.mem `Flip draws then Fault.bit_flip t.fault ~at ~len else None
        in
        let image =
          match flip with
          | None -> buf
          | Some bit ->
              let dirty = Bytes.copy buf in
              let byte = bit / 8 and mask = 1 lsl (bit mod 8) in
              Bytes.set_uint8 dirty byte (Bytes.get_uint8 dirty byte lxor mask);
              dirty
        in
        let torn = List.mem `Torn draws && Fault.torn_write t.fault ~at in
        (image, if torn then len / 2 else len)
  in
  pwrite t ~off image reached;
  if not atomic then t.unsynced <- (off, len) :: t.unsynced

let fsync t ?at ?(draws = []) () =
  (match at with
  | Some at when List.mem `Crash draws ->
      (* the writes the lost fsync would have made durable each keep
         their head and may lose their tail half *)
      Fault.io t.fault ~at ~on_crash:(fun () ->
          List.iter
            (fun (off, len) ->
              if Fault.torn_write t.fault ~at then
                let half = len / 2 in
                pwrite t ~off:(off + half) (Bytes.make half '\000') half)
            t.unsynced)
  | _ -> ());
  let at = if List.mem `Eio draws then at else None in
  attempt t ?at (fun () -> Unix.fsync t.fd);
  t.unsynced <- []

let replace ?fault ~at path contents =
  let tmp = path ^ ".tmp" in
  Option.iter
    (fun fault ->
      Fault.io fault ~at ~on_crash:(fun () ->
          if Sys.file_exists tmp then Sys.remove tmp))
    fault;
  match contents with
  | None -> if Sys.file_exists path then Sys.remove path
  | Some bytes ->
      let t = openfile [ Unix.O_CREAT; Unix.O_TRUNC ] tmp in
      (* [write] leaves its buffer as it found it *)
      write t ~off:0 (Bytes.unsafe_of_string bytes);
      fsync t ();
      close t;
      Sys.rename tmp path
