(* Durable replication metadata.  Every file here is a sequence of
   CRC-framed text payloads (Storage.Log_file.frame), so the same
   tolerant scanner that reads WALs reads these: a torn tail is
   dropped, never fatal.  The descriptor and node stamps are published
   whole by Storage.Disk.replace; the ack journal is a
   Storage.Log_file, append-only like a log. *)

module Log_file = Storage.Log_file

type sync_mode = Quorum | Async

let sync_mode_to_string = function Quorum -> "quorum" | Async -> "async"

let sync_mode_of_string = function
  | "quorum" -> Some Quorum
  | "async" -> Some Async
  | _ -> None

type group = { epoch : int; primary : int; nodes : int; sync : sync_mode }

let node_path base k = if k = 0 then base else Printf.sprintf "%s.r%d" base k
let group_path base = base ^ ".repl"
let acks_path base = base ^ ".acks"
let epoch_path node = node ^ ".node"

(* Publish one framed payload as the whole file: a crash at [site]
   leaves the old file. *)
let replace_file ?fault ~site path payload =
  Storage.Disk.replace ?fault ~at:site path
    (Some (Log_file.frame payload))

let first_payload path =
  match Log_file.read_payloads path with (_, p) :: _ -> Some p | [] -> None

let save_group ?fault base g =
  replace_file ?fault ~site:"repl group write" (group_path base)
    (Printf.sprintf "%d %d %d %s" g.epoch g.primary g.nodes
       (sync_mode_to_string g.sync))

let load_group base =
  match first_payload (group_path base) with
  | None -> None
  | Some p -> (
      match String.split_on_char ' ' p with
      | [ e; pr; n; s ] -> (
          match
            ( int_of_string_opt e,
              int_of_string_opt pr,
              int_of_string_opt n,
              sync_mode_of_string s )
          with
          | Some epoch, Some primary, Some nodes, Some sync ->
              Some { epoch; primary; nodes; sync }
          | _ -> None)
      | _ -> None)

let discover base =
  match load_group base with
  | Some g -> g.nodes
  | None ->
      if not (Sys.file_exists base) then 0
      else begin
        let k = ref 1 in
        while Sys.file_exists (node_path base !k) do
          incr k
        done;
        !k
      end

let save_node ?fault node ~epoch ~snapshot_lsn =
  replace_file ?fault ~site:"repl node write" (epoch_path node)
    (Printf.sprintf "%d %d" epoch snapshot_lsn)

let load_node node =
  match first_payload (epoch_path node) with
  | None -> None
  | Some p -> (
      match String.split_on_char ' ' p with
      | [ e; s ] -> (
          match (int_of_string_opt e, int_of_string_opt s) with
          | Some epoch, Some snap -> Some (epoch, snap)
          | _ -> None)
      | _ -> None)

type ack = { txn : int; lsn : int; ack_epoch : int }

let ack_of_payload p =
  match String.split_on_char ' ' p with
  | [ t; l; e ] -> (
      match (int_of_string_opt t, int_of_string_opt l, int_of_string_opt e) with
      | Some txn, Some lsn, Some ack_epoch -> Some { txn; lsn; ack_epoch }
      | _ -> None)
  | _ -> None

(* the journal ends at the first frame that is not an ack *)
let valid_ack image off len = ack_of_payload (String.sub image off len) <> None

let open_journal ?fault base =
  fst (Log_file.open_file ?fault ~valid:valid_ack (acks_path base))

let append_ack journal a =
  ignore
    (Log_file.append journal
       (Log_file.frame (Printf.sprintf "%d %d %d" a.txn a.lsn a.ack_epoch))
      : int);
  Log_file.flush journal ~at:"ack journal append"

let load_acks base =
  List.filter_map
    (fun (_, p) -> ack_of_payload p)
    (Log_file.read_payloads ~valid:valid_ack (acks_path base))
