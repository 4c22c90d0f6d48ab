(* The disk-site table of docs/FAULTS.md, pinned.  For every disk row
   (site, kinds drawn) and every disk kind — crash, torn, flip, eio — a
   kind the row lists must fire at that site, and a kind it does not
   list must never fire there.  A fired fault is read from its
   [fault.<kind>.<site>] counter; a crash from a [crash=N] sweep, which
   visits every crash site of its scenario once.  The probabilistic
   kinds run one scenario per (row, kind), at probability 1 scoped to a
   substring that names the row: when the kind is listed it fires at
   the row's first visit, and when it is not, no site in the scope
   draws it, so the run is the faultless one (whose visits the crash
   sweep, or a listed kind, shows) and the counter must stay 0. *)

module E = Storage.Engine
module F = Storage.Fault
module C = Distributed.Coordinator
module G = Replication.Group
module M = Replication.Repl_meta

type kind = Crash | Torn | Flip | Eio

let kind_name = function
  | Crash -> "crash"
  | Torn -> "torn"
  | Flip -> "flip"
  | Eio -> "eio"

(* A disk row: its site as a counter names it, a substring that scopes
   a rule to it, and the kinds it draws. *)
type row = { site : string; scope : string; kinds : kind list }

let row site scope kinds = { site; scope; kinds }

let fired registry kind site =
  Test_storage.count registry (Printf.sprintf "fault.%s.%s" (kind_name kind) site)

(* Run [f x]; on any failure drop [x]'s descriptors as a crash would,
   and let the failure escape. *)
let guard ~crash x f =
  match f x with () -> () | exception e -> (try crash x with _ -> ()); raise e

(* --- the scenarios --------------------------------------------------------- *)

(* The crash matrix's transactions on one engine, one after another,
   then a reopen whose first look at the item store misses the pool. *)
let local fault path =
  guard ~crash:E.crash (E.open_db ~pool_size:2 ~fault path) (fun eng ->
      List.iter
        (fun (_, writes, fin) ->
          let txn = E.begin_txn eng in
          List.iter (fun (item, v) -> E.write eng ~txn item v) writes;
          match fin with
          | Test_storage.Fcommit -> E.commit eng ~txn
          | Test_storage.Fabort -> E.abort eng ~txn)
        Test_storage.matrix_specs;
      E.close eng);
  guard ~crash:E.crash (E.open_db ~fault path) (fun eng ->
      ignore (E.items eng : (string * int) list);
      E.close eng)

let local_rows =
  [
    row "page_N_read" "read" [ Eio ];
    row "page_N_write" "write" [ Crash; Flip; Torn ];
    row "page_N_allocate" "allocate" [ Crash; Flip; Torn ];
    row "header_write" "header" [ Crash ];
    row "pager_fsync" "pager fsync" [ Crash; Eio ];
    row "wal_flush" "wal flush" [ Crash; Flip; Torn ];
    row "wal_fsync" "wal fsync" [ Eio ];
  ]

(* The stranded commit: a faultless run whose COMMIT to shard 1 is
   lost, then an open under the spec, whose termination protocol
   appends the Commit to shard 1's log, and one more commit through the
   coordinator log. *)
let two_pc spec metrics base =
  let commit coord v =
    let txn = C.begin_txn coord in
    C.write coord ~txn (Test_distributed.item_on ~shards:2 0) v;
    C.write coord ~txn (Test_distributed.item_on ~shards:2 1) v;
    ignore (C.commit coord ~txn : C.outcome)
  in
  let strand = F.spec_of_string "drop@commit shard 1=1,seed=1" in
  let coord = C.open_dist ~shards:2 ~faults:strand base in
  commit coord 1;
  C.close coord;
  guard ~crash:C.crash (C.open_dist ~faults:spec ~metrics base) (fun coord ->
      commit coord 2;
      C.close coord)

let two_pc_rows =
  [
    row "coord_flush" "coord flush" [ Crash ];
    row "coord_fsync" "coord fsync" [ Eio ];
    row "shard_N_resolve" "resolve" [ Crash; Eio ];
  ]

(* The replication smoke's run: a quorum group of two replicas, six
   commits, and the close that ships the checkpoint as a snapshot. *)
let replicated spec metrics base =
  guard ~crash:G.crash
    (G.open_group ~replicas:2 ~sync:M.Quorum ~faults:spec ~metrics base)
    (fun g ->
      for t = 1 to 6 do
        let txn = G.begin_txn g in
        G.write g ~txn (Printf.sprintf "x%d" (t mod 4)) t;
        ignore (G.commit g ~txn : G.outcome)
      done;
      G.close g)

let replicated_rows =
  [
    row "replica_N_wal_append" "wal append" [ Crash ];
    row "ack_journal_append" "ack journal" [ Crash ];
    row "replica_N_snapshot" "snapshot" [ Crash ];
    row "repl_group_write" "group write" [ Crash ];
    row "repl_node_write" "node write" [ Crash ];
  ]

(* Each scenario runs on fresh files under a spec, counting fired faults
   in the registry it is given, and says whether it completed. *)
type scenario = { run : string -> Obs.Registry.t -> bool; rows : row list }

let completes f =
  match f () with () -> true | exception _ -> false

let local_scenario =
  {
    run =
      (fun spec registry ->
        let path = Test_storage.fresh_path () in
        let fault = F.create () in
        F.set_metrics fault registry;
        F.configure fault (F.spec_of_string spec);
        let ok = completes (fun () -> local fault path) in
        Test_storage.cleanup path;
        ok);
    rows = local_rows;
  }

let two_pc_scenario =
  {
    run =
      (fun spec registry ->
        let base = Test_distributed.fresh_base () in
        let ok =
          completes (fun () -> two_pc (F.spec_of_string spec) registry base)
        in
        Test_distributed.cleanup base 2;
        ok);
    rows = two_pc_rows;
  }

let replicated_scenario =
  {
    run =
      (fun spec registry ->
        let base = Test_replication.fresh_base () in
        let ok =
          completes (fun () -> replicated (F.spec_of_string spec) registry base)
        in
        Test_replication.cleanup base;
        ok);
    rows = replicated_rows;
  }

(* --- the checks ------------------------------------------------------------ *)

(* The registries of a [crash=N] sweep, N = 0, 1, ... up to the first
   run the budget does not stop. *)
let crash_sweep ?(extra = "") scenario =
  let rec go n acc =
    if n > 2000 then Alcotest.fail "crash sweep did not terminate";
    let registry = Obs.Registry.create () in
    if scenario.run (Printf.sprintf "crash=%d%s" n extra) registry then
      List.rev acc
    else go (n + 1) (registry :: acc)
  in
  go 0 []

let check_scenario scenario () =
  let sweep = crash_sweep scenario in
  Alcotest.(check bool) "the sweep crashed somewhere" true (sweep <> []);
  List.iter
    (fun r ->
      let crashed = List.exists (fun reg -> fired reg Crash r.site > 0) sweep in
      Alcotest.(check bool)
        (Printf.sprintf "%s: crash %s" r.site
           (if List.mem Crash r.kinds then "fires" else "never fires"))
        (List.mem Crash r.kinds) crashed;
      List.iter
        (fun kind ->
          let registry = Obs.Registry.create () in
          ignore
            (scenario.run
               (Printf.sprintf "%s@%s=1,seed=11" (kind_name kind) r.scope)
               registry
              : bool);
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s %s" r.site (kind_name kind)
               (if List.mem kind r.kinds then "fires" else "never fires"))
            (List.mem kind r.kinds)
            (fired registry kind r.site > 0))
        [ Torn; Flip; Eio ])
    scenario.rows

(* [pager fsync] draws torn only as a crash's partial effect: one draw
   per page written since the last sync.  Without a crash the torn
   cell above stays 0; with one, some crash there tears, and no tear
   happens where the crash was elsewhere. *)
let test_crashed_fsync_tears () =
  let sweep = crash_sweep ~extra:",torn@pager fsync=1" local_scenario in
  let torn = List.filter (fun reg -> fired reg Torn "pager_fsync" > 0) sweep in
  Alcotest.(check bool) "some crashed fsync tears" true (torn <> []);
  List.iter
    (fun reg ->
      Alcotest.(check int) "only where the crash hit the fsync" 1
        (fired reg Crash "pager_fsync"))
    torn

let suite =
  [
    Alcotest.test_case "local engine sites" `Quick (check_scenario local_scenario);
    Alcotest.test_case "2pc sites" `Quick (check_scenario two_pc_scenario);
    Alcotest.test_case "replication sites" `Quick
      (check_scenario replicated_scenario);
    Alcotest.test_case "a crashed pager fsync tears" `Quick test_crashed_fsync_tears;
  ]
