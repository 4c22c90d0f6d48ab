(* The four workloads: what their files hold, what one op is, and how
   each op's answer and the run's end state are checked.

   Every op replays a dbmeta call sequence in-process through the public
   functions of Storage, Planner, Relational, Distributed and Replication
   (bin/dbmeta.ml is not a library), wrapping each public call in
   {!Probe.call} so the traced pass can attribute its time and page
   reads.  Inputs come from the seed alone. *)

module R = Relational
module V = R.Value
module E = Storage.Engine
module P = Planner.Physical
module Coord = Distributed.Coordinator
module Group = Replication.Group

type config = { dir : string; seed : int; dbmeta : string }
(** Where a set-up puts its files ([dir/db] holds the database files,
    the rest is the benchmark's own), the workload seed, and the built
    CLI used for the rendering cross-check. *)

type instance = {
  run : Probe.t -> int -> unit -> bool;
      (** op [i]; returns the answer check, run after the clock stops *)
  finish : unit -> (string * bool) list;
      (** end-of-run checks; closes whatever the instance holds open *)
  discard : unit -> unit;  (** abandon a set-up that will not be measured *)
  live_bytes : unit -> int;  (** logical bytes of live user data *)
  written_bytes : unit -> int;  (** logical bytes the ops asked to write *)
  rows_out : unit -> int;  (** answer rows returned by read ops *)
  wal_bytes : unit -> int;  (** size of the log an op's open would recover *)
  stats_pages : int;  (** heap pages [__stats] records for [r] (0: none) *)
}

type spec = {
  name : string;
  classes : string array;  (** op [i] has class [classes.(i mod length)] *)
  rate : float;  (** nominal ops/s on the reference host; sizes a run *)
  spans_per_op : int;  (** trace ring slots to reserve per op *)
  setup : Probe.t -> config -> instance;
}

let db_dir cfg = Filename.concat cfg.dir "db"

(* --- sizes --------------------------------------------------------------- *)

let rows_r = 20_000
let rows_s = 500
let payload_len = 7
let history_txns = 1_000
let item_keys = 1_000
let rows_w = 2_000
let queries_per_class = 12

let item k = Printf.sprintf "i%04d" k

let value_bytes = function
  | V.Int _ | V.Float _ -> 8
  | V.Bool _ -> 1
  | V.String s -> String.length s

let relation_bytes rel =
  R.Relation.fold
    (fun t acc -> Array.fold_left (fun a v -> a + value_bytes v) acc t)
    rel 0

let items_bytes items =
  Hashtbl.fold (fun k _ acc -> acc + String.length k + 8) items 0

let sorted_items items =
  Hashtbl.fold (fun k v acc -> if v = 0 then acc else (k, v) :: acc) items []
  |> List.sort compare

let random_string rng n =
  String.init n (fun _ -> Char.chr (97 + Random.State.int rng 26))

let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

(* Every file under [dir]: the database, its log and every sibling file
   (shards, coordinator log, replicas, ack journal, group descriptor). *)
let rec dir_bytes dir =
  Array.fold_left
    (fun acc name ->
      let path = Filename.concat dir name in
      if Sys.is_directory path then acc + dir_bytes path else acc + file_size path)
    0 (Sys.readdir dir)

(* 1,000 committed transactions of four writes each, like as many
   [db set] calls; [model] receives every acknowledged write. *)
let history eng rng model =
  for _ = 1 to history_txns do
    let txn = E.begin_txn eng in
    for _ = 1 to 4 do
      let k = item (Random.State.int rng item_keys)
      and v = 1 + Random.State.int rng 1_000_000 in
      E.write eng ~txn k v;
      Hashtbl.replace model k v
    done;
    E.commit eng ~txn
  done

(* --- the read workloads ---------------------------------------------------- *)

let read_classes = [| "point"; "range"; "join"; "scan" |]

let reads_db seed =
  let rng = Random.State.make [| seed; 1 |] in
  let r =
    R.Relation.of_list
      (R.Schema.make [ ("k", V.TInt); ("g", V.TInt); ("payload", V.TString) ])
      (List.init rows_r (fun k ->
           [
             V.Int k;
             V.Int (Random.State.int rng rows_s);
             V.String (random_string rng payload_len);
           ]))
  in
  let s =
    R.Relation.of_list
      (R.Schema.make [ ("g", V.TInt); ("name", V.TString) ])
      (List.init rows_s (fun g ->
           [ V.Int g; V.String (Printf.sprintf "n%03d%s" g (random_string rng 5)) ]))
  in
  R.Database.of_list [ ("r", r); ("s", s) ]

(* [queries_per_class] query texts per class, in [read_classes] order. *)
let read_queries seed =
  let rng = Random.State.make [| seed; 2 |] in
  let pool f = Array.init queries_per_class (fun _ -> f (Random.State.int rng)) in
  [|
    pool (fun draw -> Printf.sprintf "select[k = %d](r)" (draw rows_r));
    pool (fun draw ->
        let a = draw (rows_r - 50) in
        Printf.sprintf "select[k >= %d and k < %d](r)" a (a + 50));
    pool (fun draw ->
        let a = draw (rows_r - 2000) in
        Printf.sprintf "project[k, name](select[k >= %d and k < %d](r join s))" a
          (a + 2000));
    pool (fun draw -> Printf.sprintf "select[g = %d](r)" (draw rows_s));
  |]

(* The file both read workloads query: [r] with a B+tree on [r.k] and
   fresh [__stats], [s], and a committed history of 1,000 transactions.
   Built the way [db load], [db index create] and [db set] build it. *)
let build_reads_file path db seed =
  let eng = E.open_db path in
  E.save_table eng "r" (R.Database.find db "r");
  E.save_table eng "s" (R.Database.find db "s");
  ignore (Planner.Stats.analyze eng [ "r"; "s" ] : Planner.Stats.t);
  Planner.Indexes.create eng (Planner.Indexes.load eng)
    { Planner.Indexes.table = "r"; attr = "k"; kind = Planner.Indexes.Btree };
  ignore (Planner.Stats.analyze eng [ "r" ] : Planner.Stats.t);
  let items = Hashtbl.create item_keys in
  history eng (Random.State.make [| seed; 3 |]) items;
  let pages =
    match Planner.Stats.find (Planner.Stats.load eng) "r" with
    | Some t -> t.Planner.Stats.pages
    | None -> 0
  in
  E.close eng;
  (items, pages)

(* What [db query] prints: the answer in the query's own column order,
   whatever shape the planner's rewrites left the plan in. *)
let render ctx expr result =
  let schema = R.Algebra.schema_of (Planner.Plan.catalog ctx) expr in
  let answer = R.Relation.project result (R.Schema.attributes schema) in
  (answer, R.Relation.to_string answer)

let rec index_paths (p : P.t) =
  let here =
    match p.P.node with
    | P.Scan { table; access = P.Point { attr; via; _ }; _ } -> [ (table, attr, via) ]
    | P.Scan { table; access = P.Range { attr; _ } | P.Ordered attr; _ } ->
        [ (table, attr, Planner.Indexes.Btree) ]
    | _ -> []
  in
  here @ List.concat_map index_paths (P.children p)

(* Fetch the structures the plan's index paths use just before
   [Exec.run], so that building them is timed apart from execution. *)
let build_indexes probe ctx plan =
  let eng = Planner.Plan.engine ctx and idx = Planner.Plan.indexes ctx in
  List.iter
    (fun (table, attr, kind) ->
      match kind with
      | Planner.Indexes.Btree ->
          ignore
            (Probe.call probe "Indexes.btree" (fun () ->
                 Planner.Indexes.btree eng idx ~table ~attr))
      | Planner.Indexes.Hash ->
          ignore
            (Probe.call probe "Indexes.hash" (fun () ->
                 Planner.Indexes.hash eng idx ~table ~attr)))
    (index_paths plan)

(* Plan, build, execute and render one query on a planning context. *)
let query probe ctx text =
  let call name f = Probe.call probe name f in
  let expr = call "parse" (fun () -> R.Query_parser.parse text) in
  let plan = call "Plan.plan" (fun () -> Planner.Plan.plan ctx expr) in
  build_indexes probe ctx plan;
  let result = call "Exec.run" (fun () -> Planner.Exec.run ctx plan) in
  call "render" (fun () -> render ctx expr result)

(* One cold [db query]: open (restart recovery, checkpoint), snapshot a
   planning context, query, close (checkpoint). *)
let cli_query probe path text =
  let eng =
    Probe.call probe "open_db" (fun () ->
        E.open_db ~metrics:probe.Probe.registry ~trace:probe.Probe.trace path)
  in
  match
    let ctx = Probe.call probe "Plan.make" (fun () -> Planner.Plan.make eng) in
    let answer = query probe ctx text in
    Probe.call probe "close" (fun () -> E.close eng);
    answer
  with
  | answer -> answer
  | exception e ->
      E.crash eng;
      raise e

(* For set-up, warm-up and checks: outside an op a probe records nothing. *)
let quiet = Probe.make ~traced:false ~trace_capacity:1

(* The byte-for-byte cross-check: the built CLI's [db query] on a copy
   of the file against this benchmark's rendering on the original. *)
let dbmeta_matches cfg path text =
  let copy_dir = Filename.concat cfg.dir "copy" in
  if not (Sys.file_exists copy_dir) then Sys.mkdir copy_dir 0o755;
  let copy = Filename.concat copy_dir "copy.db" in
  let cp src dst = Support.Io.write_file dst (Support.Io.read_file src) in
  cp path copy;
  cp (E.wal_path path) (E.wal_path copy);
  let out_file = Filename.concat copy_dir "out.txt" in
  let fd = Unix.openfile out_file [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid =
    Unix.create_process cfg.dbmeta
      [| cfg.dbmeta; "db"; "query"; copy; text |]
      Unix.stdin fd Unix.stderr
  in
  Unix.close fd;
  let _, status = Unix.waitpid [] pid in
  let _, mine = cli_query quiet path text in
  status = Unix.WEXITED 0 && String.equal (Support.Io.read_file out_file) mine

type reads = {
  db : R.Database.t;
  queries : string array array;
  oracle : (string, R.Relation.t) Hashtbl.t;
  mutable rows : int;
}

let read_text rd seed i =
  let pool = rd.queries.(i mod Array.length read_classes) in
  pool.(Hashtbl.hash (seed, i) mod Array.length pool)

(* The answer check: the program's answer against [Eval.eval] on the
   generated in-memory database. *)
let check_answer rd text answer () =
  let expected =
    match Hashtbl.find_opt rd.oracle text with
    | Some e -> e
    | None ->
        let e = R.Eval.eval rd.db (R.Query_parser.parse text) in
        Hashtbl.replace rd.oracle text e;
        e
  in
  rd.rows <- rd.rows + R.Relation.cardinality answer;
  R.Relation.equal answer expected

let reads_instance ~path ~items ~pages rd ~run ~finish ~discard =
  {
    run;
    finish;
    discard;
    live_bytes =
      (fun () ->
        R.Database.fold (fun _ rel acc -> acc + relation_bytes rel) rd.db 0
        + items_bytes items);
    written_bytes = (fun () -> 0);
    rows_out = (fun () -> rd.rows);
    wal_bytes = (fun () -> file_size (E.wal_path path));
    stats_pages = pages;
  }

let new_reads cfg =
  let db = reads_db cfg.seed in
  let path = Filename.concat (db_dir cfg) "reads.db" in
  let items, pages = build_reads_file path db cfg.seed in
  let rd =
    { db; queries = read_queries cfg.seed; oracle = Hashtbl.create 64; rows = 0 }
  in
  (path, items, pages, rd)

let sample_query rd = rd.queries.(2).(0)

let cli_read =
  let setup _probe cfg =
    let path, items, pages, rd = new_reads cfg in
    let run probe i =
      let text = read_text rd cfg.seed i in
      let answer, _ = cli_query probe path text in
      check_answer rd text answer
    in
    (* warm-up: one op of each class *)
    Array.iteri
      (fun i _ -> ignore (cli_query quiet path (read_text rd cfg.seed i)))
      read_classes;
    let finish () = [ ("dbmeta rendering", dbmeta_matches cfg path (sample_query rd)) ] in
    reads_instance ~path ~items ~pages rd ~run ~finish ~discard:ignore
  in
  { name = "cli_read"; classes = read_classes; rate = 20.; spans_per_op = 32; setup }

let session_read =
  let setup probe cfg =
    let path, items, pages, rd = new_reads cfg in
    let eng = E.open_db ~metrics:probe.Probe.registry ~trace:probe.Probe.trace path in
    let ctx = Planner.Plan.make eng in
    (* one op of each class builds the indexes and warms the pool *)
    Array.iteri
      (fun i _ -> ignore (query quiet ctx (read_text rd cfg.seed i)))
      read_classes;
    let run probe i =
      let text = read_text rd cfg.seed i in
      let answer, _ = query probe ctx text in
      check_answer rd text answer
    in
    let finish () =
      E.close eng;
      [ ("dbmeta rendering", dbmeta_matches cfg path (sample_query rd)) ]
    in
    reads_instance ~path ~items ~pages rd ~run ~finish
      ~discard:(fun () -> E.crash eng)
  in
  { name = "session_read"; classes = read_classes; rate = 100.; spans_per_op = 16; setup }

(* --- write_cli ---------------------------------------------------------------- *)

let write_classes = [| "set"; "set"; "set"; "set"; "set"; "set"; "set"; "rewrite" |]

let w_variant seed v =
  let rng = Random.State.make [| seed; 10 + v |] in
  R.Relation.of_list
    (R.Schema.make [ ("a", V.TInt); ("b", V.TInt); ("c", V.TString) ])
    (List.init rows_w (fun a ->
         [
           V.Int a;
           V.Int (Random.State.int rng 1_000_000);
           V.String (random_string rng 8);
         ]))

let w_index = { Planner.Indexes.table = "w"; attr = "a"; kind = Planner.Indexes.Btree }

let write_cli =
  let setup _probe cfg =
    let path = Filename.concat (db_dir cfg) "writes.db" in
    let variants = Array.init 3 (w_variant cfg.seed) in
    let csv v = Filename.concat cfg.dir (Printf.sprintf "w%d.csv" v) in
    Array.iteri (fun v rel -> R.Csv.save (csv v) rel) variants;
    let items = Hashtbl.create item_keys in
    let eng = E.open_db path in
    E.save_table eng "w" variants.(0);
    ignore (Planner.Stats.analyze eng [ "w" ] : Planner.Stats.t);
    history eng (Random.State.make [| cfg.seed; 3 |]) items;
    E.close eng;
    (* the model of acknowledged state *)
    let table = ref variants.(0) and indexed = ref false and written = ref 0 in
    let rng = Random.State.make [| cfg.seed; 4 |] in
    let open_db probe =
      Probe.call probe "open_db" (fun () ->
          E.open_db ~metrics:probe.Probe.registry ~trace:probe.Probe.trace path)
    in
    let cold probe f =
      let eng = open_db probe in
      match
        f eng;
        Probe.call probe "close" (fun () -> E.close eng)
      with
      | () -> ()
      | exception e ->
          E.crash eng;
          raise e
    in
    let analyze probe eng =
      ignore
        (Probe.call probe "Stats.analyze" (fun () -> Planner.Stats.analyze eng [ "w" ])
          : Planner.Stats.t)
    in
    let set probe =
      let writes =
        List.init 4 (fun _ ->
            (item (Random.State.int rng item_keys), 1 + Random.State.int rng 1_000_000))
      in
      cold probe (fun eng ->
          let txn = Probe.call probe "begin_txn" (fun () -> E.begin_txn eng) in
          List.iter
            (fun (k, v) -> Probe.call probe "write" (fun () -> E.write eng ~txn k v))
            writes;
          Probe.call probe "commit" (fun () -> E.commit eng ~txn));
      fun () ->
        List.iter
          (fun (k, v) ->
            Hashtbl.replace items k v;
            written := !written + String.length k + 8)
          writes;
        true
    in
    let load probe v =
      let rel = Probe.call probe "Csv.load" (fun () -> R.Csv.load (csv v)) in
      cold probe (fun eng ->
          Probe.call probe "save_table" (fun () -> E.save_table eng "w" rel);
          analyze probe eng);
      fun () ->
        table := variants.(v);
        written := !written + relation_bytes rel;
        R.Relation.equal rel variants.(v)
    in
    let ddl probe create =
      cold probe (fun eng ->
          let idx = Probe.call probe "Indexes.load" (fun () -> Planner.Indexes.load eng) in
          if create then begin
            Probe.call probe "Indexes.create" (fun () ->
                Planner.Indexes.create eng idx w_index);
            analyze probe eng
          end
          else
            Probe.call probe "Indexes.drop" (fun () ->
                Planner.Indexes.drop eng idx w_index));
      fun () ->
        indexed := create;
        true
    in
    (* seven [db set] in eight; the eighth rotates through [db load] of the
       next variant, [db index create] and [db index drop] *)
    let run probe i =
      if i mod 8 < 7 then set probe
      else
        let k = i / 8 in
        match k mod 3 with
        | 0 -> load probe (((k / 3) + 1) mod 3)
        | 1 -> ddl probe true
        | _ -> ddl probe false
    in
    let finish () =
      let model = sorted_items items in
      let eng = E.open_db path in
      let items_ok = E.items eng = model in
      let table_ok = R.Relation.equal (E.load_table eng "w") !table in
      let defs_ok =
        Planner.Indexes.defs (Planner.Indexes.load eng)
        = if !indexed then [ w_index ] else []
      in
      E.close eng;
      (* abandon an unacknowledged write, as a process dying mid-[db set] *)
      let eng = E.open_db path in
      let txn = E.begin_txn eng in
      List.iter (fun k -> E.write eng ~txn (item k) 1_000_000_007) [ 0; 1; 2; 3 ];
      E.crash eng;
      let eng = E.open_db path in
      let crash_ok = E.items eng = model in
      E.close eng;
      [
        ("items = acknowledged writes", items_ok);
        ("table w = last load", table_ok);
        ("index catalog = last ddl", defs_ok);
        ("crash keeps acknowledged, drops unacknowledged", crash_ok);
      ]
    in
    {
      run;
      finish;
      discard = ignore;
      live_bytes = (fun () -> items_bytes items + relation_bytes !table);
      written_bytes = (fun () -> !written);
      rows_out = (fun () -> 0);
      wal_bytes = (fun () -> file_size (E.wal_path path));
      stats_pages = 0;
    }
  in
  { name = "write_cli"; classes = write_classes; rate = 50.; spans_per_op = 32; setup }

(* --- txn_commit --------------------------------------------------------------- *)

let commit_classes = [| "local"; "shard"; "quorum" |]

let txn_commit =
  let setup probe cfg =
    let base name = Filename.concat (db_dir cfg) name in
    let metrics = probe.Probe.registry and trace = probe.Probe.trace in
    let local = E.open_db ~metrics ~trace (base "local.db") in
    let coord = Coord.open_dist ~shards:2 ~metrics ~trace (base "shard.db") in
    let group =
      Group.open_group ~replicas:2 ~sync:Replication.Repl_meta.Quorum ~metrics ~trace
        (base "group.db")
    in
    (* per backend: begin, write, and commit -> did it commit durably *)
    let backends =
      [|
        ( (fun () -> E.begin_txn local),
          (fun txn k v -> E.write local ~txn k v),
          fun txn ->
            E.commit local ~txn;
            true );
        ( (fun () -> Coord.begin_txn coord),
          (fun txn k v -> Coord.write coord ~txn k v),
          fun txn -> Coord.commit coord ~txn = Coord.Committed );
        ( (fun () -> Group.begin_txn group),
          (fun txn k v -> Group.write group ~txn k v),
          fun txn -> Group.commit group ~txn = Group.Acked );
      |]
    in
    let models = Array.init 3 (fun _ -> Hashtbl.create item_keys) in
    let written = ref 0 in
    let commit probe b writes =
      let begin_txn, write, commit = backends.(b) in
      let txn = Probe.call probe "begin_txn" begin_txn in
      List.iter (fun (k, v) -> Probe.call probe "write" (fun () -> write txn k v)) writes;
      let ok = Probe.call probe "commit" (fun () -> commit txn) in
      fun () ->
        if ok then
          List.iter
            (fun (k, v) ->
              Hashtbl.replace models.(b) k v;
              written := !written + String.length k + 8)
            writes;
        ok
    in
    (* the item store every op updates: 1,000 items per backend *)
    Array.iteri
      (fun b _ ->
        for t = 0 to (item_keys / 4) - 1 do
          ignore (commit quiet b (List.init 4 (fun j -> (item ((4 * t) + j), 1 + t))) ())
        done)
      backends;
    written := 0;
    let rng = Random.State.make [| cfg.seed; 5 |] in
    let run probe i =
      let rec keys acc =
        if List.length acc = 4 then acc
        else
          let k = item (Random.State.int rng item_keys) in
          keys (if List.mem k acc then acc else k :: acc)
      in
      commit probe (i mod 3) (List.mapi (fun j k -> (k, 2_000_000 + (4 * i) + j)) (keys []))
    in
    let finish () =
      let model b = sorted_items models.(b) in
      let items_ok =
        [
          ("local items = model", E.items local = model 0);
          ("Coordinator.items = model", Coord.items coord = model 1);
          ("Group.items = model", Group.items group = model 2);
        ]
      in
      let nodes = Group.node_count group in
      E.close local;
      Coord.close coord;
      Group.close group;
      let wal_clean db =
        not (Analysis.Diagnostic.has_errors (Analysis.Wal_lint.lint_file (E.wal_path db)))
      in
      let wals =
        (base "local.db" :: List.init 2 (Coord.shard_path (base "shard.db")))
        @ List.init nodes (Replication.Repl_meta.node_path (base "group.db"))
      in
      items_ok
      @ [
          ("Wal_lint: no errors", List.for_all wal_clean wals);
          ( "Replication_lint: no errors",
            not
              (Analysis.Diagnostic.has_errors
                 (Analysis.Replication_lint.lint_base (base "group.db"))) );
        ]
    in
    {
      run;
      finish;
      discard =
        (fun () ->
          E.crash local;
          Coord.crash coord;
          Group.crash group);
      live_bytes = (fun () -> Array.fold_left (fun acc m -> acc + items_bytes m) 0 models);
      written_bytes = (fun () -> !written);
      rows_out = (fun () -> 0);
      wal_bytes = (fun () -> 0);
      stats_pages = 0;
    }
  in
  { name = "txn_commit"; classes = commit_classes; rate = 2400.; spans_per_op = 24; setup }

let all = [ cli_read; session_read; write_cli; txn_commit ]
