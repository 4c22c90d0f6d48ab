(* Fast distributed fault-matrix smoke for @check: a reduced sweep of
   shard counts x {message drops, message delays, coordinator crashes}
   over a 2PC workload, each cell checked four ways — the distributed
   model check, every shard WAL through the offline WAL verifier, the
   survivor logs through the commit lint, and one more open and close
   of every recovered shard, which must change no byte.  A reduced
   version of the exhaustive crash matrix in test/test_distributed.ml. *)

module C = Distributed.Coordinator
module E = Storage.Engine
module X = Storage.Executor
module F = Storage.Fault
module W = Storage.Wal
module D = Analysis.Diagnostic

let failures = ref 0

let say fmt = Printf.printf (fmt ^^ "\n%!")

let fail fmt =
  Printf.ksprintf
    (fun s ->
      incr failures;
      Printf.printf "FAIL: %s\n%!" s)
    fmt

let fresh_base =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "dist_smoke_%d_%d.db" (Unix.getpid ()) !n)

let cleanup base shards =
  let rm p = if Sys.file_exists p then Sys.remove p in
  rm (C.coord_path base);
  for k = 0 to shards - 1 do
    rm (C.shard_path base k);
    rm (E.wal_path (C.shard_path base k))
  done

let workload ~seed =
  Transactions.Workload.generate (Support.Rng.create seed)
    {
      Transactions.Workload.txns = 4;
      ops_per_txn = 4;
      items = 8;
      skew = 0.5;
      write_ratio = 0.6;
    }

let errors diags = List.filter (fun d -> d.D.severity = D.Error) diags

(* The model check's reopen has recovered every shard; one more open
   and close of each shard engine finds an idle restart and must not
   change a byte of any file in the family. *)
let check_clean_reopen ~what base shards =
  let paths =
    C.coord_path base
    :: List.concat
         (List.init shards (fun k ->
              [ C.shard_path base k; E.wal_path (C.shard_path base k) ]))
  in
  let files () =
    List.map
      (fun p -> if Sys.file_exists p then Some (Support.Io.read_file p) else None)
      paths
  in
  let before = files () in
  for k = 0 to shards - 1 do
    E.close (E.open_db (C.shard_path base k))
  done;
  if files () <> before then fail "%s: a clean reopen changed the files" what

let run_cell ~what ~shards ~spec ~seed =
  let base = fresh_base () in
  (match C.open_dist ~shards ~faults:(F.spec_of_string spec) base with
  | exception F.Crash _ -> ()
  | coord -> (
      let stats =
        X.run ~config:{ X.default_config with seed } (C.backend coord)
          (workload ~seed)
      in
      match stats.X.crashed with
      | Some _ -> ()
      | None -> ( try C.close coord with F.Crash _ -> C.crash coord)));
  for k = 0 to shards - 1 do
    let diags =
      Analysis.Wal_lint.lint_file (E.wal_path (C.shard_path base k))
    in
    if errors diags <> [] then
      fail "%s (shards %d spec %S seed %d): shard %d wal lint errors" what
        shards spec seed k
  done;
  if errors (Analysis.Commit_lint.lint_base base) <> [] then
    fail "%s (shards %d spec %S seed %d): commit lint errors" what shards spec
      seed;
  (match C.model_divergence ~path:base with
  | None -> ()
  | Some (expected, actual) ->
      let show kv =
        String.concat ", "
          (List.map (fun (i, v) -> Printf.sprintf "%s=%d" i v) kv)
      in
      fail "%s (shards %d spec %S seed %d): diverged\n  expected: %s\n  actual:   %s"
        what shards spec seed (show expected) (show actual));
  check_clean_reopen
    ~what:(Printf.sprintf "%s (shards %d spec %S seed %d)" what shards spec seed)
    base shards;
  cleanup base shards

let () =
  let seeds = [ 1; 2 ] in
  List.iter
    (fun shards ->
      List.iter
        (fun (what, spec) ->
          List.iter
            (fun seed ->
              run_cell ~what ~shards
                ~spec:(Printf.sprintf "%s,seed=%d" spec seed)
                ~seed)
            seeds;
          say "%d-shard %s sweep: ok" shards what)
        [
          ("drop", "drop=0.25");
          ("delay", "delay=0.3");
          ("coordinator crash", "crash=13");
          ("crash+loss", "crash=19,drop=0.15,part=0.1");
        ])
    [ 2; 3 ];
  if !failures > 0 then exit 1;
  say "dist smoke: all clear"
