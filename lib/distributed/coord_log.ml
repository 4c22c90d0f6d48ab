(* The codec of the coordinator's write-ahead log: 2PC protocol records
   in a Storage.Log_file, the same CRC frames as the storage WAL, with
   their own payloads.  Presumed abort dictates the force discipline the
   coordinator keeps:

     - only Decide(commit) must be forced before any COMMIT message goes
       out (the commit point);
     - Begin/Vote records ride along in the same flush — prefix
       durability of the frame stream means a surviving Decide implies
       its earlier Votes survived too;
     - Decide(abort) and Forget need never be forced: a transaction the
       log says nothing about is presumed aborted.

   The file itself (open, flush, crash tear, fsync retry) is
   Storage.Log_file's. *)

type decision = Commit | Abort

type record =
  | Begin of { txn : int; shards : int list }
  | Vote of { txn : int; shard : int; yes : bool }
  | Decide of { txn : int; decision : decision }
  | Forget of int

type entry = { off : int; record : record }

exception Corrupt of string

(* --- codec: u8 kind (1 begin, 2 vote, 3 decide, 4 forget) --------------- *)

let payload_of_record r =
  let buf = Buffer.create 16 in
  (match r with
  | Begin { txn; shards } ->
      Buffer.add_uint8 buf 1;
      Buffer.add_int32_le buf (Int32.of_int txn);
      if List.length shards > 0xffff then invalid_arg "Coord_log: too many shards";
      Buffer.add_uint16_le buf (List.length shards);
      List.iter (fun k -> Buffer.add_uint16_le buf k) shards
  | Vote { txn; shard; yes } ->
      Buffer.add_uint8 buf 2;
      Buffer.add_int32_le buf (Int32.of_int txn);
      Buffer.add_uint16_le buf shard;
      Buffer.add_uint8 buf (if yes then 1 else 0)
  | Decide { txn; decision } ->
      Buffer.add_uint8 buf 3;
      Buffer.add_int32_le buf (Int32.of_int txn);
      Buffer.add_uint8 buf (match decision with Commit -> 1 | Abort -> 0)
  | Forget txn ->
      Buffer.add_uint8 buf 4;
      Buffer.add_int32_le buf (Int32.of_int txn));
  Buffer.contents buf

let record_of_payload s =
  let pos = ref 0 in
  let u8 () =
    let v = Char.code s.[!pos] in
    incr pos;
    v
  in
  let u16 () =
    let v = String.get_uint16_le s !pos in
    pos := !pos + 2;
    v
  in
  let u32 () =
    let v = Int32.to_int (String.get_int32_le s !pos) land 0xFFFFFFFF in
    pos := !pos + 4;
    v
  in
  try
    match u8 () with
    | 1 ->
        let txn = u32 () in
        let n = u16 () in
        Begin { txn; shards = List.init n (fun _ -> u16 ()) }
    | 2 ->
        let txn = u32 () in
        let shard = u16 () in
        Vote { txn; shard; yes = u8 () = 1 }
    | 3 ->
        let txn = u32 () in
        Decide { txn; decision = (if u8 () = 1 then Commit else Abort) }
    | 4 -> Forget (u32 ())
    | k -> raise (Corrupt (Printf.sprintf "unknown coordinator record kind %d" k))
  with Invalid_argument _ -> raise (Corrupt "truncated coordinator record")

let decision_to_string = function Commit -> "commit" | Abort -> "abort"

let record_to_string = function
  | Begin { txn; shards } ->
      Printf.sprintf "begin(%d, shards=[%s])" txn
        (String.concat "," (List.map string_of_int shards))
  | Vote { txn; shard; yes } ->
      Printf.sprintf "vote(%d, shard %d, %s)" txn shard (if yes then "yes" else "no")
  | Decide { txn; decision } ->
      Printf.sprintf "decide(%d, %s)" txn (decision_to_string decision)
  | Forget txn -> Printf.sprintf "forget(%d)" txn

let frame r = Storage.Log_file.frame (payload_of_record r)

(* The payload check of every scan: a frame whose payload the codec
   rejects ends the log like a torn one. *)
let valid image off len =
  match record_of_payload (String.sub image off len) with
  | _ -> true
  | exception Corrupt _ -> false

let read_file path =
  List.map
    (fun (off, payload) -> { off; record = record_of_payload payload })
    (Storage.Log_file.read_payloads ~valid path)

let decisions entries =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun { record; _ } ->
      match record with
      | Decide { txn; decision } ->
          if not (Hashtbl.mem tbl txn) then Hashtbl.replace tbl txn decision
      | Begin _ | Vote _ | Forget _ -> ())
    entries;
  tbl
