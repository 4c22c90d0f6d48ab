(* Tests for the persistent storage engine: CRC and codec round trips,
   slotted pages, the pager, the buffer pool, the binary WAL (including
   torn tails), ARIES-lite recovery, heap tables — and the acceptance
   centerpiece: a crash-injection matrix that kills the engine at every
   durable I/O of an interleaved workload (and during recovery itself)
   and asserts the committed-state invariant of Transactions.Recovery
   against the reopened database. *)

module V = Relational.Value
module R = Transactions.Recovery

let tmp_counter = ref 0

(* a fresh database path in a temp dir; the WAL lives beside it *)
let fresh_path () =
  incr tmp_counter;
  let dir = Filename.get_temp_dir_name () in
  let path =
    Filename.concat dir
      (Printf.sprintf "dbmeta_test_%d_%d.db" (Unix.getpid ()) !tmp_counter)
  in
  List.iter
    (fun p -> if Sys.file_exists p then Sys.remove p)
    [ path; Storage.Engine.wal_path path ];
  path

let cleanup path =
  List.iter
    (fun p -> if Sys.file_exists p then Sys.remove p)
    [ path; Storage.Engine.wal_path path ]

(* --- crc32 ------------------------------------------------------------- *)

let test_crc32_vectors () =
  (* the standard check value for CRC-32/ISO-HDLC *)
  Alcotest.(check int) "123456789" 0xCBF43926 (Support.Crc32.string "123456789");
  Alcotest.(check int) "empty" 0 (Support.Crc32.string "");
  Alcotest.(check bool) "differs" true
    (Support.Crc32.string "hello" <> Support.Crc32.string "hellp")

let test_crc32_incremental () =
  let whole = Support.Crc32.string "database metatheory" in
  let b = Bytes.of_string "database metatheory" in
  let partial = Support.Crc32.update 0 b ~pos:0 ~len:8 in
  Alcotest.(check bool) "prefix differs" true (partial <> whole);
  Alcotest.(check int) "resumed"
    whole
    (Support.Crc32.update
       (Support.Crc32.update 0 b ~pos:0 ~len:8)
       b ~pos:8 ~len:(Bytes.length b - 8))

(* The byte-at-a-time loop that slicing-by-8 replaced, kept as the
   reference its checksums must equal. *)
let crc32_reference =
  let table =
    Array.init 256 (fun n ->
        let c = ref n in
        for _ = 0 to 7 do
          c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
        done;
        !c)
  in
  fun crc b ~pos ~len ->
    let c = ref (crc lxor 0xFFFFFFFF) in
    for i = pos to pos + len - 1 do
      c := table.((!c lxor Char.code (Bytes.get b i)) land 0xff) lxor (!c lsr 8)
    done;
    !c lxor 0xFFFFFFFF

let prop_crc32_matches_reference =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"crc32 = byte-at-a-time reference"
       (QCheck2.Gen.int_range 0 1_000_000)
       (fun seed ->
         let rng = Support.Rng.create seed in
         (* lengths 0-300 and a whole page, at any offset in a buffer with
            slack after the range *)
         let len =
           if Support.Rng.int rng 8 = 0 then 4096 else Support.Rng.int rng 301
         in
         let pos = Support.Rng.int rng 17 in
         let b =
           Bytes.init
             (pos + len + Support.Rng.int rng 9)
             (fun _ -> Char.chr (Support.Rng.int rng 256))
         in
         let crc = Support.Crc32.update 0 b ~pos ~len in
         (* chained: resume from a split point, and from a prior checksum *)
         let split = Support.Rng.int rng (len + 1) in
         let prior = Support.Rng.int rng 0x1_0000_0000 in
         crc = crc32_reference 0 b ~pos ~len
         && Support.Crc32.update
              (Support.Crc32.update 0 b ~pos ~len:split)
              b ~pos:(pos + split) ~len:(len - split)
            = crc
         && Support.Crc32.update prior b ~pos ~len
            = crc32_reference prior b ~pos ~len))

(* --- codec ------------------------------------------------------------- *)

let test_codec_roundtrip () =
  let values =
    [
      V.Int 0; V.Int (-42); V.Int max_int; V.String ""; V.String "héllo,\"x\"\n";
      V.Float 3.25; V.Float (-0.0); V.Bool true; V.Bool false;
    ]
  in
  List.iter
    (fun v ->
      let buf = Buffer.create 16 in
      Relational.Codec.add_value buf v;
      let got = Relational.Codec.read_value (Buffer.contents buf) (ref 0) in
      Alcotest.(check bool) (V.to_literal v) true (V.equal v got))
    values;
  let tuple = [| V.Int 7; V.String "pods"; V.Float 1.5; V.Bool false |] in
  let got =
    Relational.Codec.tuple_of_string (Relational.Codec.tuple_to_string tuple)
  in
  Alcotest.(check bool) "tuple" true (Relational.Tuple.equal tuple got);
  let schema =
    Relational.Schema.make [ ("a", V.TInt); ("name", V.TString); ("ok", V.TBool) ]
  in
  let got =
    Relational.Codec.schema_of_string (Relational.Codec.schema_to_string schema)
  in
  Alcotest.(check bool) "schema" true (Relational.Schema.equal schema got)

let test_codec_corrupt () =
  let corrupt s =
    match Relational.Codec.tuple_of_string s with
    | _ -> false
    | exception Relational.Codec.Corrupt _ -> true
  in
  Alcotest.(check bool) "truncated" true (corrupt "\x02\x00\x00");
  Alcotest.(check bool) "bad tag" true (corrupt "\x01\x00\x09zzzzzzzz");
  let good = Relational.Codec.tuple_to_string [| V.Int 1 |] in
  Alcotest.(check bool) "trailing" true (corrupt (good ^ "x"))

(* The in-place walk against the reference decoder: encoded tuples of
   every value type (edge values included), their truncations, and
   mutations of a type tag, a string length, the arity or any byte —
   each placed at an offset inside a larger buffer.  The walk must
   accept exactly what tuple_of_string accepts (rejecting with the same
   message), decode the same tuple, and compare each column with a
   constant exactly as Value.compare compares the decoded value. *)
let edge_value rng =
  let pick l = List.nth l (Support.Rng.int rng (List.length l)) in
  match Support.Rng.int rng 4 with
  | 0 -> V.Int (pick [ 0; 1; -1; 42; -42; max_int; min_int ])
  | 1 -> V.String (pick [ ""; "a"; "ab"; "abc"; "b"; "\xff"; "ab\x00" ])
  | 2 ->
      V.Float
        (pick [ 0.0; -0.0; Float.nan; Float.infinity; Float.neg_infinity; 1.5; -2.5 ])
  | _ -> V.Bool (Support.Rng.bool rng)

let prop_walk_matches_tuple_of_string =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:1000 ~name:"in-place walk = tuple_of_string"
       (QCheck2.Gen.int_range 0 1_000_000)
       (fun seed ->
         let rng = Support.Rng.create seed in
         let tuple = Array.init (Support.Rng.int rng 5) (fun _ -> edge_value rng) in
         let good = Relational.Codec.tuple_to_string tuple in
         (* where each column's tag byte sits in [good] *)
         let tags =
           let pos = ref 2 in
           Array.map
             (fun v ->
               let at = !pos in
               let b = Buffer.create 16 in
               Relational.Codec.add_value b v;
               pos := !pos + Buffer.length b;
               at)
             tuple
         in
         let set s i byte =
           let b = Bytes.of_string s in
           Bytes.set_uint8 b i byte;
           Bytes.to_string b
         in
         let n = String.length good in
         let record =
           match Support.Rng.int rng 7 with
           | 0 | 1 -> good
           | 2 -> String.sub good 0 (Support.Rng.int rng n)
           | 3 when Array.length tags > 0 ->
               set good tags.(Support.Rng.int rng (Array.length tags)) (Support.Rng.int rng 6)
           | 4 -> (
               (* a string length, else the arity *)
               match
                 List.filter (fun i -> good.[i] = '\001') (Array.to_list tags)
               with
               | i :: _ -> set good (i + 1) (Support.Rng.int rng 256)
               | [] -> set good 0 (Support.Rng.int rng 8))
           | 5 -> good ^ String.make (1 + Support.Rng.int rng 3) '\000'
           | _ -> set good (Support.Rng.int rng n) (Support.Rng.int rng 256)
         in
         let pad = Support.Rng.int rng 9 in
         let buf =
           Bytes.of_string (String.make pad '\003' ^ record ^ String.make 9 '\001')
         in
         let view = Relational.Codec.view () in
         let walked =
           match
             Relational.Codec.walk view buf ~off:pad ~len:(String.length record)
           with
           | () -> Ok (Relational.Codec.tuple view)
           | exception Relational.Codec.Corrupt m -> Error m
         in
         let reference =
           match Relational.Codec.tuple_of_string record with
           | t -> Ok t
           | exception Relational.Codec.Corrupt m -> Error m
         in
         let clash f = match f () with n -> Ok (compare n 0) | exception V.Type_clash m -> Error m in
         match (walked, reference) with
         | Error a, Error b -> a = b
         | Ok t, Ok r ->
             Relational.Tuple.equal t r
             && Array.for_all
                  (fun c ->
                    List.for_all
                      (fun i ->
                        clash (fun () -> Relational.Codec.compare_column view i c)
                        = clash (fun () -> V.compare r.(i) c))
                      (List.init (Array.length r) Fun.id))
                  (Array.init 6 (fun _ -> edge_value rng))
         | _ -> false))

(* --- slotted pages ------------------------------------------------------ *)

let test_page_slots () =
  let p = Storage.Page.init ~kind:3 in
  let a = Storage.Page.insert p "alpha" in
  let b = Storage.Page.insert p "beta" in
  Alcotest.(check int) "slot ids" 1 (b - a);
  Alcotest.(check (option string)) "read a" (Some "alpha") (Storage.Page.read_slot p a);
  Storage.Page.delete_slot p a;
  Alcotest.(check (option string)) "deleted" None (Storage.Page.read_slot p a);
  Alcotest.(check (option string)) "b intact" (Some "beta") (Storage.Page.read_slot p b);
  Alcotest.(check bool) "overwrite same len" true (Storage.Page.overwrite p b "BETA");
  Alcotest.(check bool) "overwrite other len" false (Storage.Page.overwrite p b "longer");
  Alcotest.(check (list (pair int string))) "records" [ (b, "BETA") ]
    (Storage.Page.records p)

let test_page_full () =
  let p = Storage.Page.init ~kind:3 in
  let big = String.make 1000 'x' in
  let rec fill n = match Storage.Page.insert p big with
    | _ -> fill (n + 1)
    | exception Storage.Page.Page_full -> n
  in
  let n = fill 0 in
  Alcotest.(check int) "four 1000-byte records fit a 4k page" 4 n;
  Alcotest.(check bool) "small still fits" true
    (match Storage.Page.insert p "tiny" with _ -> true)

let test_page_lsn_monotone () =
  let p = Storage.Page.init ~kind:2 in
  Storage.Page.set_lsn p 100;
  Storage.Page.set_lsn p 40;
  Alcotest.(check int) "keeps max" 100 (Storage.Page.lsn p)

let test_page_crc () =
  let p = Storage.Page.init ~kind:3 in
  ignore (Storage.Page.insert p "payload" : int);
  Storage.Page.seal p;
  Alcotest.(check bool) "sealed verifies" true (Storage.Page.check p);
  Bytes.set p 100 'Z';
  Alcotest.(check bool) "corruption detected" false (Storage.Page.check p)

(* --- pager --------------------------------------------------------------- *)

let test_pager_roundtrip () =
  let path = fresh_path () in
  let pager = Storage.Pager.create path in
  let id = Storage.Pager.allocate pager ~kind:3 in
  let page = Storage.Pager.read_page pager id in
  ignore (Storage.Page.insert page "persistent" : int);
  Storage.Pager.write_page pager id page;
  Storage.Pager.set_catalog_root pager id;
  Storage.Pager.close pager;
  let pager = Storage.Pager.open_file path in
  Alcotest.(check int) "page count" 2 (Storage.Pager.page_count pager);
  Alcotest.(check int) "root" id (Storage.Pager.catalog_root pager);
  let page = Storage.Pager.read_page pager id in
  Alcotest.(check (option string)) "record" (Some "persistent")
    (Storage.Page.read_slot page 0);
  Storage.Pager.close pager;
  cleanup path

let test_pager_detects_corruption () =
  let path = fresh_path () in
  let pager = Storage.Pager.create path in
  let id = Storage.Pager.allocate pager ~kind:3 in
  Storage.Pager.close pager;
  (* flip a byte in the middle of the data page *)
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
  ignore (Unix.lseek fd ((id * Storage.Page.size) + 2000) Unix.SEEK_SET);
  ignore (Unix.write_substring fd "X" 0 1);
  Unix.close fd;
  let pager = Storage.Pager.open_file path in
  Alcotest.(check bool) "crc mismatch raised" true
    (match Storage.Pager.read_page pager id with
    | _ -> false
    | exception Storage.Pager.Corrupt _ -> true);
  Storage.Pager.close pager;
  cleanup path

let test_pager_rejects_garbage () =
  let path = fresh_path () in
  Support.Io.write_file path (String.make 8192 'j');
  Alcotest.(check bool) "bad magic" true
    (match Storage.Pager.open_file path with
    | _ -> false
    | exception Storage.Pager.Corrupt _ -> true);
  cleanup path

(* Allocation takes the lowest page the owner walk did not reach, with
   no header write, and appends only when none is left; a released page
   comes back; a walk that fails reuses nothing. *)
let test_pager_reuses_unreached () =
  let path = fresh_path () in
  let pager = Storage.Pager.create path in
  ignore (List.init 4 (fun _ -> Storage.Pager.allocate pager ~kind:3) : int list);
  Storage.Pager.close pager;
  let metrics = Obs.Registry.create () in
  let pager = Storage.Pager.open_file ~metrics path in
  Storage.Pager.set_owner pager (fun () -> Some [ 2; 4 ]);
  let writes () = snd (Storage.Pager.io_counts pager) in
  let a = Storage.Pager.allocate pager ~kind:3 in
  let b = Storage.Pager.allocate pager ~kind:3 in
  Alcotest.(check (list int)) "lowest unreached first" [ 1; 3 ] [ a; b ];
  Alcotest.(check int) "one write each, no header write" 2 (writes ());
  Alcotest.(check int) "page count unchanged" 5 (Storage.Pager.page_count pager);
  Alcotest.(check int) "then appends" 5 (Storage.Pager.allocate pager ~kind:3);
  Storage.Pager.release pager [ 3 ];
  Alcotest.(check int) "a released page comes back" 3
    (Storage.Pager.allocate pager ~kind:3);
  Alcotest.(check (option int)) "pager.reused" (Some 3)
    (Obs.Registry.counter_value metrics "pager.reused");
  Alcotest.(check (option (list int))) "an id past the end" None
    (Storage.Pager.unreached pager [ 99 ]);
  Storage.Pager.close pager;
  let pager = Storage.Pager.open_file path in
  Storage.Pager.set_owner pager (fun () -> None);
  Alcotest.(check int) "a failed walk appends" 6 (Storage.Pager.allocate pager ~kind:3);
  Storage.Pager.close pager;
  cleanup path

(* --- buffer pool ---------------------------------------------------------- *)

let test_pool_counters_and_lru () =
  let path = fresh_path () in
  let pager = Storage.Pager.create path in
  let ids = List.init 6 (fun _ -> Storage.Pager.allocate pager ~kind:3) in
  let pool = Storage.Buffer_pool.create ~capacity:4 pager in
  (* touch 4 pages: all misses *)
  List.iteri
    (fun i id -> if i < 4 then Storage.Buffer_pool.with_page pool id ignore)
    ids;
  let s = Storage.Buffer_pool.stats pool in
  Alcotest.(check int) "misses" 4 s.Storage.Buffer_pool.misses;
  Alcotest.(check int) "hits" 0 s.Storage.Buffer_pool.hits;
  (* hit one of them *)
  Storage.Buffer_pool.with_page pool (List.nth ids 3) ignore;
  Alcotest.(check int) "one hit" 1 s.Storage.Buffer_pool.hits;
  (* a 5th page evicts the LRU (the first touched) *)
  Storage.Buffer_pool.with_page pool (List.nth ids 4) ignore;
  Alcotest.(check int) "eviction" 1 s.Storage.Buffer_pool.evictions;
  Storage.Buffer_pool.with_page pool (List.nth ids 0) ignore;
  Alcotest.(check int) "reload miss" 6 s.Storage.Buffer_pool.misses;
  Storage.Pager.close pager;
  cleanup path

let test_pool_dirty_flush_and_barrier () =
  let path = fresh_path () in
  let pager = Storage.Pager.create path in
  let a = Storage.Pager.allocate pager ~kind:3 in
  let b = Storage.Pager.allocate pager ~kind:3 in
  let pool = Storage.Buffer_pool.create ~capacity:1 pager in
  let barrier_calls = ref [] in
  Storage.Buffer_pool.set_wal_barrier pool (fun lsn -> barrier_calls := lsn :: !barrier_calls);
  Storage.Buffer_pool.with_page pool a (fun page ->
      ignore (Storage.Page.insert page "dirty" : int);
      Storage.Page.set_lsn page 77;
      Storage.Buffer_pool.mark_dirty pool a);
  (* fetching b evicts a, which must flush through the barrier *)
  Storage.Buffer_pool.with_page pool b ignore;
  Alcotest.(check (list int)) "barrier saw page lsn" [ 77 ] !barrier_calls;
  let s = Storage.Buffer_pool.stats pool in
  Alcotest.(check int) "flushes" 1 s.Storage.Buffer_pool.flushes;
  (* the flushed page is durable *)
  let page = Storage.Pager.read_page pager a in
  Alcotest.(check (option string)) "stolen write on disk" (Some "dirty")
    (Storage.Page.read_slot page 0);
  Storage.Pager.close pager;
  cleanup path

let test_pool_exhausted () =
  let path = fresh_path () in
  let pager = Storage.Pager.create path in
  let a = Storage.Pager.allocate pager ~kind:3 in
  let b = Storage.Pager.allocate pager ~kind:3 in
  let pool = Storage.Buffer_pool.create ~capacity:1 pager in
  let page = Storage.Buffer_pool.fetch pool a in
  ignore (page : Storage.Page.t);
  Alcotest.(check bool) "all pinned" true
    (match Storage.Buffer_pool.fetch pool b with
    | _ -> false
    | exception Storage.Buffer_pool.Pool_exhausted -> true);
  Storage.Buffer_pool.unpin pool a;
  Storage.Pager.close pager;
  cleanup path

(* A reference model of the pool with a fresh buffer per miss
   (Pager.read_page): exact LRU by a touch clock, pins, dirty write-back
   on eviction and flush_all, drop_clean. *)
module Model_pool = struct
  type frame = { page : Storage.Page.t; mutable dirty : bool; mutable pins : int; mutable stamp : int }

  type t = {
    pager : Storage.Pager.t;
    capacity : int;
    frames : (int, frame) Hashtbl.t;
    mutable clock : int;
    mutable hits : int;
    mutable misses : int;
    mutable evictions : int;
    mutable flushes : int;
  }

  let create ~capacity pager =
    { pager; capacity; frames = Hashtbl.create 8; clock = 0; hits = 0; misses = 0;
      evictions = 0; flushes = 0 }

  let touch t f =
    t.clock <- t.clock + 1;
    f.stamp <- t.clock

  let flush t id f =
    if f.dirty then begin
      Storage.Pager.write_page t.pager id f.page;
      f.dirty <- false;
      t.flushes <- t.flushes + 1
    end

  let evict t =
    match
      Hashtbl.fold
        (fun id f best ->
          match best with
          | _ when f.pins > 0 -> best
          | Some (_, b) when b.stamp <= f.stamp -> best
          | _ -> Some (id, f))
        t.frames None
    with
    | None -> raise Storage.Buffer_pool.Pool_exhausted
    | Some (id, f) ->
        flush t id f;
        Hashtbl.remove t.frames id;
        t.evictions <- t.evictions + 1

  let install t id page pins =
    let f = { page; dirty = false; pins; stamp = 0 } in
    touch t f;
    Hashtbl.replace t.frames id f

  let fetch t id =
    match Hashtbl.find_opt t.frames id with
    | Some f ->
        t.hits <- t.hits + 1;
        f.pins <- f.pins + 1;
        touch t f;
        f.page
    | None ->
        t.misses <- t.misses + 1;
        if Hashtbl.length t.frames >= t.capacity then evict t;
        let page = Storage.Pager.read_page t.pager id in
        install t id page 1;
        page

  let unpin t id = let f = Hashtbl.find t.frames id in f.pins <- f.pins - 1
  let mark_dirty t id = (Hashtbl.find t.frames id).dirty <- true

  let adopt t id page =
    if Hashtbl.length t.frames >= t.capacity then evict t;
    install t id page 0

  let flush_all t =
    Hashtbl.fold (fun id _ acc -> id :: acc) t.frames []
    |> List.sort Int.compare
    |> List.iter (fun id -> flush t id (Hashtbl.find t.frames id))

  let drop_clean t =
    Hashtbl.fold (fun id f acc -> if (not f.dirty) && f.pins = 0 then id :: acc else acc) t.frames []
    |> List.iter (Hashtbl.remove t.frames)
end

type pool_op =
  | Read of int  (* fetch and unpin *)
  | Pin of int  (* fetch and keep the pin *)
  | Release  (* drop the oldest pin held *)
  | Write of int  (* fetch, insert a record, mark dirty, unpin *)
  | Adopt  (* allocate a page and adopt it, dirty *)
  | Flush_all
  | Drop_clean

let pool_op_gen pages =
  let open QCheck2.Gen in
  frequency
    [
      (6, map (fun i -> Read i) (int_range 1 pages));
      (2, map (fun i -> Pin i) (int_range 1 pages));
      (2, return Release);
      (3, map (fun i -> Write i) (int_range 1 pages));
      (1, return Adopt);
      (1, return Flush_all);
      (1, return Drop_clean);
    ]

(* Random op sequences on the pool and on the model, each over its own
   copy of the same file: every op must end alike (or raise alike),
   leave the same counters and resident count, and hand out the same
   page bytes.  Besides the pages it adopted, the pool must never hand
   out more distinct buffers than its capacity. *)
let prop_pool_matches_model =
  let pages = 7 in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:150 ~name:"buffer pool = fresh-buffer LRU model"
       QCheck2.Gen.(pair (int_range 1 4) (list_size (int_range 1 80) (pool_op_gen pages)))
       (fun (capacity, ops) ->
         let open_copy () =
           let path = fresh_path () in
           let pager = Storage.Pager.create path in
           for i = 1 to pages do
             let id = Storage.Pager.allocate pager ~kind:3 in
             let page = Storage.Pager.read_page pager id in
             ignore (Storage.Page.insert page (Printf.sprintf "page %d" i) : int);
             Storage.Pager.write_page pager id page
           done;
           (path, pager)
         in
         let path_a, pager_a = open_copy () and path_b, pager_b = open_copy () in
         let pool = Storage.Buffer_pool.create ~capacity pager_a in
         let model = Model_pool.create ~capacity pager_b in
         let buffers = ref [] and adopted = ref [] and pins = Queue.create () in
         let seen page =
           if not (List.exists (( == ) page) (!buffers @ !adopted)) then
             buffers := page :: !buffers
         in
         let outcome f = match f () with x -> Ok x | exception e -> Error (Printexc.to_string e) in
         let step k op =
           let same_bytes a b = Bytes.equal a b in
           let ok =
             match op with
             | Read id | Pin id | Write id ->
                 let a = outcome (fun () -> Storage.Buffer_pool.fetch pool id)
                 and b = outcome (fun () -> Model_pool.fetch model id) in
                 (match (a, b) with
                 | Ok pa, Ok pb ->
                     seen pa;
                     let same = same_bytes pa pb in
                     (match op with
                     | Pin _ -> Queue.push id pins
                     | Write _ ->
                         let r = Printf.sprintf "w%d" k in
                         (try
                            ignore (Storage.Page.insert pa r : int);
                            ignore (Storage.Page.insert pb r : int)
                          with Storage.Page.Page_full -> ());
                         Storage.Buffer_pool.mark_dirty pool id;
                         Model_pool.mark_dirty model id;
                         Storage.Buffer_pool.unpin pool id;
                         Model_pool.unpin model id
                     | _ ->
                         Storage.Buffer_pool.unpin pool id;
                         Model_pool.unpin model id);
                     same
                 | Error ea, Error eb -> ea = eb
                 | _ -> false)
             | Release ->
                 (match Queue.take_opt pins with
                 | Some id ->
                     Storage.Buffer_pool.unpin pool id;
                     Model_pool.unpin model id
                 | None -> ());
                 true
             | Adopt ->
                 let ia = Storage.Pager.allocate pager_a ~kind:3
                 and ib = Storage.Pager.allocate pager_b ~kind:3 in
                 let fresh () =
                   let p = Storage.Page.init ~kind:3 in
                   ignore (Storage.Page.insert p (Printf.sprintf "adopted %d" k) : int);
                   p
                 in
                 let page = fresh () in
                 adopted := page :: !adopted;
                 let a = outcome (fun () -> Storage.Buffer_pool.adopt pool ia page)
                 and b = outcome (fun () -> Model_pool.adopt model ib (fresh ())) in
                 (match (a, b) with
                 | Ok (), Ok () ->
                     Storage.Buffer_pool.mark_dirty pool ia;
                     Model_pool.mark_dirty model ib
                 | _ -> ());
                 ia = ib && a = b
             | Flush_all ->
                 Storage.Buffer_pool.flush_all pool;
                 Model_pool.flush_all model;
                 true
             | Drop_clean ->
                 Storage.Buffer_pool.drop_clean pool;
                 Model_pool.drop_clean model;
                 true
           in
           let st = Storage.Buffer_pool.stats pool in
           ok
           && st.Storage.Buffer_pool.hits = model.Model_pool.hits
           && st.Storage.Buffer_pool.misses = model.Model_pool.misses
           && st.Storage.Buffer_pool.evictions = model.Model_pool.evictions
           && st.Storage.Buffer_pool.flushes = model.Model_pool.flushes
           && Storage.Buffer_pool.resident pool = Hashtbl.length model.Model_pool.frames
           && Storage.Pager.io_counts pager_a = Storage.Pager.io_counts pager_b
           && List.length !buffers <= capacity
         in
         let agree = List.for_all Fun.id (List.mapi step ops) in
         (* every page's bytes, read back through each side *)
         Queue.iter
           (fun id ->
             Storage.Buffer_pool.unpin pool id;
             Model_pool.unpin model id)
           pins;
         Storage.Buffer_pool.flush_all pool;
         Model_pool.flush_all model;
         let on_disk =
           List.for_all
             (fun id ->
               Bytes.equal
                 (Storage.Pager.read_page pager_a id)
                 (Storage.Pager.read_page pager_b id))
             (List.init (Storage.Pager.page_count pager_a - 1) (fun i -> i + 1))
         in
         Storage.Pager.close pager_a;
         Storage.Pager.close pager_b;
         cleanup path_a;
         cleanup path_b;
         agree && on_disk))

(* A failed read into a reused buffer: a CRC mismatch, a torn page and
   an exhausted EIO retry budget each leave the page non-resident and
   its buffer with the pool; once the disk is right again the next
   fetch returns the correct bytes, in one of the pool's own buffers. *)
let test_pool_failed_reads () =
  let path = fresh_path () in
  let pager = Storage.Pager.create path in
  let a = Storage.Pager.allocate pager ~kind:3 in
  let b = Storage.Pager.allocate pager ~kind:3 in
  let image = Storage.Pager.read_page pager b in
  ignore (Storage.Page.insert image "bravo" : int);
  Storage.Pager.write_page pager b image;
  let good = Bytes.copy image in
  let pool = Storage.Buffer_pool.create ~capacity:1 pager in
  let s = Storage.Buffer_pool.stats pool in
  let buf_a = Storage.Buffer_pool.fetch pool a in
  Storage.Buffer_pool.unpin pool a;
  let damage f =
    let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
    f fd;
    Unix.close fd
  in
  let fails what exn_ok =
    (match Storage.Buffer_pool.with_page pool b Bytes.copy with
    | _ -> Alcotest.failf "%s: fetch succeeded" what
    | exception e -> Alcotest.(check bool) (what ^ ": raised") true (exn_ok e));
    Alcotest.(check int) (what ^ ": nothing resident") 0 (Storage.Buffer_pool.resident pool);
    Storage.Pager.write_page pager b (Bytes.copy good);
    let page = Storage.Buffer_pool.fetch pool b in
    Alcotest.(check bool) (what ^ ": next fetch reads correct bytes") true
      (Bytes.equal page good);
    Alcotest.(check bool) (what ^ ": in the pool's one buffer") true (page == buf_a);
    Storage.Buffer_pool.unpin pool b;
    (* make b the victim again for the next case *)
    Storage.Buffer_pool.with_page pool a ignore
  in
  let corrupt = function Storage.Pager.Corrupt _ -> true | _ -> false in
  damage (fun fd ->
      ignore (Unix.lseek fd ((b * Storage.Page.size) + 2000) Unix.SEEK_SET);
      ignore (Unix.write_substring fd "X" 0 1));
  fails "crc mismatch" corrupt;
  damage (fun fd ->
      let half = Storage.Page.size / 2 in
      ignore (Unix.lseek fd ((b * Storage.Page.size) + half) Unix.SEEK_SET);
      ignore (Unix.write fd (Bytes.make half '\000') 0 half));
  fails "torn page" corrupt;
  let fault = Storage.Pager.fault pager in
  Storage.Fault.configure fault (Storage.Fault.spec_of_string "eio@read=1.0,seed=3");
  (match Storage.Buffer_pool.fetch pool b with
  | _ -> Alcotest.fail "eio: fetch succeeded"
  | exception Storage.Fault.Io_error _ -> ());
  Alcotest.(check int) "eio: nothing resident" 0 (Storage.Buffer_pool.resident pool);
  Storage.Fault.configure fault Storage.Fault.no_faults;
  Storage.Buffer_pool.with_page pool b (fun page ->
      Alcotest.(check bool) "eio: next fetch reads correct bytes" true
        (Bytes.equal page good && page == buf_a));
  (* every fetch of b missed, and every one that found a resident evicted it *)
  Alcotest.(check int) "misses counted as before" 9 s.Storage.Buffer_pool.misses;
  Alcotest.(check int) "evictions counted as before" 5 s.Storage.Buffer_pool.evictions;
  Storage.Pager.close pager;
  cleanup path

(* --- WAL ------------------------------------------------------------------- *)

let wal_records l = List.map (fun e -> e.Storage.Wal.record) l

(* [Wal.open_log] with the surviving image it returns decoded *)
let open_log path =
  let wal, image = Storage.Wal.open_log path in
  (wal, Storage.Wal.entries_from image 0)

let test_wal_roundtrip () =
  let path = fresh_path () in
  let wal_file = Storage.Engine.wal_path path in
  let wal, entries = open_log wal_file in
  Alcotest.(check int) "fresh log empty" 0 (List.length entries);
  let records =
    [
      Storage.Wal.Begin 1;
      Storage.Wal.Write { txn = 1; item = "x"; before = 0; after = 5; compensation = false };
      Storage.Wal.Commit 1;
      Storage.Wal.Begin 2;
      Storage.Wal.Write { txn = 2; item = "naïve/ключ"; before = 5; after = -7; compensation = true };
      Storage.Wal.Abort 2;
      Storage.Wal.Checkpoint;
    ]
  in
  List.iter (fun r -> ignore (Storage.Wal.append wal r : int)) records;
  Storage.Wal.flush wal;
  Storage.Wal.close wal;
  let _, entries = open_log wal_file in
  Alcotest.(check int) "all back" (List.length records) (List.length entries);
  Alcotest.(check bool) "equal" true (wal_records entries = records);
  (* LSNs are strictly increasing byte offsets *)
  let lsns = List.map (fun e -> e.Storage.Wal.lsn) entries in
  Alcotest.(check bool) "lsns increase" true
    (List.for_all2 ( < ) (List.filteri (fun i _ -> i < List.length lsns - 1) lsns)
       (List.tl lsns));
  cleanup path

let test_wal_torn_tail () =
  let path = fresh_path () in
  let wal_file = Storage.Engine.wal_path path in
  let wal, _ = Storage.Wal.open_log wal_file in
  ignore (Storage.Wal.append wal (Storage.Wal.Begin 9) : int);
  ignore (Storage.Wal.append wal (Storage.Wal.Commit 9) : int);
  Storage.Wal.flush wal;
  Storage.Wal.close wal;
  (* append garbage, then half a valid frame: both must be tolerated *)
  let image = Support.Io.read_file wal_file in
  let frame = Storage.Wal.frame_of_record (Storage.Wal.Begin 10) in
  let torn = String.sub frame 0 (String.length frame / 2) in
  Support.Io.write_file wal_file (image ^ torn);
  let wal, entries = open_log wal_file in
  Alcotest.(check int) "clean prefix survives" 2 (List.length entries);
  (* the torn tail was physically truncated; appending works again *)
  ignore (Storage.Wal.append wal (Storage.Wal.Begin 11) : int);
  Storage.Wal.flush wal;
  Storage.Wal.close wal;
  let _, entries = open_log wal_file in
  Alcotest.(check bool) "resumed cleanly" true
    (wal_records entries
    = [ Storage.Wal.Begin 9; Storage.Wal.Commit 9; Storage.Wal.Begin 11 ]);
  (* bit-flip in the middle: the scan stops at the flip, keeping the prefix *)
  let image = Support.Io.read_file wal_file in
  let flipped = Bytes.of_string image in
  Bytes.set flipped (String.length image - 3) '\xff';
  Support.Io.write_file wal_file (Bytes.to_string flipped);
  let _, entries = open_log wal_file in
  Alcotest.(check int) "flip truncates to prefix" 2 (List.length entries);
  cleanup path

(* the model bridge: random model logs survive the binary round trip *)
let prop_wal_model_roundtrip =
  let open QCheck2 in
  let record_gen =
    Gen.(
      oneof
        [
          map (fun t -> R.Begin t) (int_range 1 9);
          map (fun t -> R.Commit t) (int_range 1 9);
          map (fun t -> R.Abort t) (int_range 1 9);
          map3
            (fun t i (b, a) -> R.Write (t, Printf.sprintf "it%d" i, b, a))
            (int_range 1 9) (int_range 0 5)
            (pair (int_range (-100) 100) (int_range (-100) 100));
        ])
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:200 ~name:"wal/model round trip"
       (Gen.list_size (Gen.int_range 0 40) record_gen)
       (fun model_log ->
         let image =
           String.concat ""
             (List.map
                (fun r -> Storage.Wal.frame_of_record (Storage.Wal.of_model r))
                model_log)
         in
         let entries, clean = Storage.Wal.scan image in
         clean = String.length image
         && Storage.Wal.to_model (wal_records entries) = model_log))

(* --- heap tables ------------------------------------------------------------ *)

let students () =
  Relational.Relation.of_list
    (Relational.Schema.make
       [ ("sid", V.TInt); ("sname", V.TString); ("gpa", V.TFloat); ("grad", V.TBool) ])
    [
      [ V.Int 1; V.String "codd"; V.Float 4.0; V.Bool true ];
      [ V.Int 2; V.String "ullman, j."; V.Float 3.5; V.Bool false ];
      [ V.Int 3; V.String "papadimitriou"; V.Float 3.9; V.Bool true ];
    ]

let test_heap_relation_roundtrip () =
  let path = fresh_path () in
  let eng = Storage.Engine.open_db path in
  let rel = students () in
  Storage.Engine.save_table eng "students" rel;
  Storage.Engine.close eng;
  let eng = Storage.Engine.open_db path in
  let back = Storage.Engine.load_table eng "students" in
  Alcotest.(check bool) "equal relation" true (Relational.Relation.equal rel back);
  Alcotest.(check (list string)) "names" [ "students" ] (Storage.Engine.table_names eng);
  Alcotest.(check bool) "unknown raises" true
    (match Storage.Engine.load_table eng "nope" with
    | _ -> false
    | exception Storage.Engine.Unknown_table _ -> true);
  Storage.Engine.close eng;
  cleanup path

let test_heap_many_pages () =
  let path = fresh_path () in
  let eng = Storage.Engine.open_db ~pool_size:4 path in
  let big =
    Relational.Relation.of_list
      (Relational.Schema.make [ ("k", V.TInt); ("pad", V.TString) ])
      (List.init 500 (fun i -> [ V.Int i; V.String (String.make 40 'p') ]))
  in
  Storage.Engine.save_table eng "big" big;
  Storage.Engine.close eng;
  let eng = Storage.Engine.open_db ~pool_size:4 path in
  let back = Storage.Engine.load_table eng "big" in
  Alcotest.(check int) "500 tuples" 500 (Relational.Relation.cardinality back);
  Alcotest.(check bool) "multi-page chain" true
    (Storage.Pager.page_count (Storage.Engine.pager eng) > 5);
  Alcotest.(check bool) "pool stayed bounded" true
    (Storage.Buffer_pool.resident (Storage.Engine.pool eng) <= 4);
  Storage.Engine.close eng;
  cleanup path

let test_heap_replace_table () =
  let path = fresh_path () in
  let eng = Storage.Engine.open_db path in
  Storage.Engine.save_table eng "t" (students ());
  let small =
    Relational.Relation.of_list
      (Relational.Schema.make [ ("only", V.TInt) ])
      [ [ V.Int 99 ] ]
  in
  Storage.Engine.save_table eng "t" small;
  Storage.Engine.save_table eng "u" (students ());
  Storage.Engine.close eng;
  let eng = Storage.Engine.open_db path in
  Alcotest.(check (list string)) "both tables" [ "t"; "u" ]
    (List.sort String.compare (Storage.Engine.table_names eng));
  Alcotest.(check bool) "t replaced" true
    (Relational.Relation.equal small (Storage.Engine.load_table eng "t"));
  Storage.Engine.close eng;
  cleanup path

(* Replacing a table in a multi-page catalog writes a new catalog chain
   (into the old chain's pages once the header retiring them is
   synced): five replaces leave the chain as long as it was. *)
let test_heap_replace_keeps_catalog_pages () =
  let path = fresh_path () in
  let eng = Storage.Engine.open_db path in
  let one v =
    Relational.Relation.of_list
      (Relational.Schema.make [ ("k", V.TInt) ])
      [ [ V.Int v ] ]
  in
  let name i = Printf.sprintf "replaced_table_number_%03d" i in
  for i = 0 to 149 do
    Storage.Engine.save_table eng (name i) (one i)
  done;
  let catalog_pages () =
    Storage.Heap.chain_pages (Storage.Engine.pool eng)
      ~first:(Storage.Pager.catalog_root (Storage.Engine.pager eng))
  in
  let pages = catalog_pages () in
  Alcotest.(check bool) "150 tables span several catalog pages" true (pages > 1);
  let info = Storage.Engine.table_info eng in
  for v = 1 to 5 do
    Storage.Engine.save_table eng (name 42) (one (1000 + v))
  done;
  Alcotest.(check int) "catalog page count unchanged" pages (catalog_pages ());
  let replaced = snd (Storage.Engine.find_table eng (name 42)) in
  let expected =
    List.map
      (fun (n, schema, first) ->
        (n, schema, if n = name 42 then replaced else first))
      info
  in
  Alcotest.(check bool) "only the replaced table's first page moved" true
    (Storage.Engine.table_info eng = expected);
  Storage.Engine.close eng;
  let eng = Storage.Engine.open_db path in
  Alcotest.(check bool) "replacement survives a reopen" true
    (Relational.Relation.equal (one 1005)
       (Storage.Engine.load_table eng (name 42)));
  Storage.Engine.close eng;
  cleanup path

(* --- engine transactions ------------------------------------------------------ *)

let test_engine_commit_persists () =
  let path = fresh_path () in
  let eng = Storage.Engine.open_db path in
  let t1 = Storage.Engine.begin_txn eng in
  Storage.Engine.write eng ~txn:t1 "x" 5;
  Storage.Engine.write eng ~txn:t1 "y" 7;
  Storage.Engine.commit eng ~txn:t1;
  Storage.Engine.close eng;
  let eng = Storage.Engine.open_db path in
  Alcotest.(check (list (pair string int))) "persisted" [ ("x", 5); ("y", 7) ]
    (Storage.Engine.items eng);
  Storage.Engine.close eng;
  cleanup path

let test_engine_abort_restores () =
  let path = fresh_path () in
  let eng = Storage.Engine.open_db path in
  let t1 = Storage.Engine.begin_txn eng in
  Storage.Engine.write eng ~txn:t1 "x" 5;
  Storage.Engine.commit eng ~txn:t1;
  let t2 = Storage.Engine.begin_txn eng in
  Storage.Engine.write eng ~txn:t2 "x" 50;
  Storage.Engine.write eng ~txn:t2 "z" 1;
  Alcotest.(check int) "dirty read visible pre-abort" 50 (Storage.Engine.read eng "x");
  Storage.Engine.abort eng ~txn:t2;
  Alcotest.(check int) "x restored" 5 (Storage.Engine.read eng "x");
  Alcotest.(check int) "z gone" 0 (Storage.Engine.read eng "z");
  Storage.Engine.close eng;
  let eng = Storage.Engine.open_db path in
  Alcotest.(check (list (pair string int))) "only committed" [ ("x", 5) ]
    (Storage.Engine.items eng);
  Storage.Engine.close eng;
  cleanup path

let test_engine_strict_locks () =
  let path = fresh_path () in
  let eng = Storage.Engine.open_db path in
  let t1 = Storage.Engine.begin_txn eng in
  let t2 = Storage.Engine.begin_txn eng in
  Storage.Engine.write eng ~txn:t1 "x" 1;
  Alcotest.(check bool) "t2 blocked on x" true
    (match Storage.Engine.write eng ~txn:t2 "x" 2 with
    | () -> false
    | exception Storage.Engine.Locked ("x", h) -> h = t1);
  Storage.Engine.commit eng ~txn:t1;
  Storage.Engine.write eng ~txn:t2 "x" 2;
  Storage.Engine.commit eng ~txn:t2;
  Alcotest.(check int) "last committer wins" 2 (Storage.Engine.read eng "x");
  Storage.Engine.close eng;
  cleanup path

let test_engine_crash_loses_uncommitted () =
  let path = fresh_path () in
  let eng = Storage.Engine.open_db ~pool_size:2 path in
  let t1 = Storage.Engine.begin_txn eng in
  Storage.Engine.write eng ~txn:t1 "a" 1;
  Storage.Engine.commit eng ~txn:t1;
  let t2 = Storage.Engine.begin_txn eng in
  (* long item names so the chain spans several pages and dirty
     uncommitted pages get stolen (evicted) out of the 2-frame pool *)
  for i = 0 to 59 do
    Storage.Engine.write eng ~txn:t2
      (Printf.sprintf "b%03d_%s" i (String.make 150 'x'))
      (i * 10)
  done;
  let s = Storage.Buffer_pool.stats (Storage.Engine.pool eng) in
  Alcotest.(check bool) "dirty pages were stolen" true
    (s.Storage.Buffer_pool.evictions > 0);
  (* uncommitted data must be undone even though some of it was stolen *)
  Storage.Engine.crash eng;
  let eng = Storage.Engine.open_db path in
  Alcotest.(check (list (pair string int))) "losers rolled back" [ ("a", 1) ]
    (Storage.Engine.items eng);
  (match Storage.Engine.last_recovery eng with
  | Some o ->
      Alcotest.(check (list int)) "t2 is the loser" [ t2 ] o.Storage.Recovery.losers
  | None -> Alcotest.fail "expected a recovery outcome");
  Storage.Engine.close eng;
  cleanup path

(* --- the crash matrix ----------------------------------------------------------

   The workload: four transactions over overlapping items, one of which
   aborts voluntarily.  We run it under a seeded random interleaving
   (per-item write locks, acquired in sorted order — the strict regime of
   Transactions.Recovery.run_and_crash), with the fault budget set to k:
   the k-th durable I/O crashes the engine, possibly mid-WAL-flush
   (leaving a torn tail).  Reopening must then yield EXACTLY the
   committed transactions' writes of the surviving log, in log order —
   computed independently via Transactions.Recovery.committed_state over
   the model image of that log. *)

type fin = Fcommit | Fabort

let matrix_specs =
  [
    (1, [ ("x", 11); ("y", 12); ("pad1", 100) ], Fcommit);
    (2, [ ("y", 22); ("z", 23) ], Fcommit);
    (3, [ ("x", 31); ("w", 32); ("pad2", 300) ], Fabort);
    (4, [ ("z", 41); ("w", 42) ], Fcommit);
  ]

(* drive the workload against the engine; returns `Completed or `Crashed *)
let run_workload ?crash_after ~seed ~pool_size path =
  let rng = Support.Rng.create seed in
  match Storage.Engine.open_db ~pool_size ?crash_after path with
  | exception Storage.Fault.Crash _ -> `Crashed
  | eng ->
  let states = Hashtbl.create 8 in
  List.iter
    (fun (t, writes, fin) ->
      let writes = List.sort (fun (a, _) (b, _) -> String.compare a b) writes in
      Hashtbl.replace states t (`Not_started, writes, fin))
    matrix_specs;
  let txns = List.map (fun (t, _, _) -> t) matrix_specs in
  let can_progress t =
    match Hashtbl.find states t with
    | `Done, _, _ -> false
    | `Not_started, _, _ -> true
    | `Running, [], _ -> true
    | `Running, (item, _) :: _, _ -> (
        match Storage.Engine.lock_holder eng item with
        | Some holder -> holder = t
        | None -> true)
  in
  let step t =
    match Hashtbl.find states t with
    | `Not_started, writes, fin ->
        ignore (Storage.Engine.begin_txn ~id:t eng : int);
        Hashtbl.replace states t (`Running, writes, fin)
    | `Running, [], fin ->
        (match fin with
        | Fcommit -> Storage.Engine.commit eng ~txn:t
        | Fabort -> Storage.Engine.abort eng ~txn:t);
        Hashtbl.replace states t (`Done, [], fin)
    | `Running, (item, v) :: rest, fin ->
        Storage.Engine.write eng ~txn:t item v;
        Hashtbl.replace states t (`Running, rest, fin)
    | `Done, _, _ -> ()
  in
  try
    let rec loop () =
      let runnable = List.filter can_progress txns in
      match runnable with
      | [] -> ()
      | _ ->
          step (List.nth runnable (Support.Rng.int rng (List.length runnable)));
          loop ()
    in
    loop ();
    Storage.Engine.close eng;
    `Completed
  with Storage.Fault.Crash _ ->
    Storage.Engine.crash eng;
    `Crashed

(* The invariant: the reopened database holds exactly the committed state
   of the surviving log, as computed by the in-memory model. *)
let check_committed_state ~what path =
  let entries = Storage.Wal.read_entries (Storage.Engine.wal_path path) in
  let model_log = Storage.Wal.to_model (wal_records entries) in
  let expected =
    R.committed_state model_log
    |> List.filter (fun (_, v) -> v <> 0)
    |> List.sort compare
  in
  let eng = Storage.Engine.open_db path in
  let actual = Storage.Engine.items eng in
  (match Storage.Engine.last_recovery eng with
  | Some o ->
      Alcotest.(check (list int))
        (what ^ ": winners agree with model")
        (R.winners model_log) o.Storage.Recovery.winners
  | None -> ());
  Storage.Engine.close eng;
  Alcotest.(check (list (pair string int))) (what ^ ": committed state") expected actual

(* [history] prepares each fresh file before the crashed run. *)
let crash_matrix ?(history = ignore) () =
  let seed = 1995 in
  let k = ref 0 in
  let continue = ref true in
  while !continue do
    let path = fresh_path () in
    history path;
    (match run_workload ~crash_after:!k ~seed ~pool_size:2 path with
    | `Completed ->
        (* budget never exhausted: the whole workload fits in k I/Os *)
        continue := false
    | `Crashed -> ());
    check_committed_state ~what:(Printf.sprintf "crash at io %d" !k) path;
    cleanup path;
    incr k;
    if !k > 500 then Alcotest.fail "crash matrix did not terminate"
  done;
  (* sanity: the matrix exercised a meaningful number of crash points *)
  Alcotest.(check bool) "several crash points" true (!k > 10)

let test_crash_matrix () = crash_matrix ()

(* A committed history over the matrix's items (ids the workload does
   not use), then two clean close/reopen cycles: the crashed run's open
   and every reopen after it restart from a checkpoint deep in the log.
   Those reopens write nothing, so the crashed run's durable I/O is its
   own: 210 filler items after each matrix item (a page holds about 200)
   put the six on six item pages, and under the 2-frame pool the run
   steals a dirty page (a WAL flush and a page write) whenever it moves
   between them. *)
let committed_history path =
  let eng = Storage.Engine.open_db ~pool_size:2 path in
  List.iteri
    (fun i (item, v) ->
      let txn = Storage.Engine.begin_txn ~id:(100 + i) eng in
      Storage.Engine.write eng ~txn item v;
      for j = 1 to 210 do
        Storage.Engine.write eng ~txn (Printf.sprintf "f%d.%03d" i j) j
      done;
      Storage.Engine.commit eng ~txn)
    [ ("x", 1); ("y", 2); ("z", 3); ("w", 4); ("pad1", 5); ("pad2", 6) ];
  Storage.Engine.close eng;
  for _ = 1 to 2 do
    Storage.Engine.close (Storage.Engine.open_db ~pool_size:2 path)
  done

let test_crash_matrix_deep_restart () =
  crash_matrix ~history:committed_history ()

let test_crash_during_recovery () =
  let seed = 77 in
  (* crash mid-workload at a point that leaves in-flight transactions *)
  let first_crash = 9 in
  let path = fresh_path () in
  (match run_workload ~crash_after:first_crash ~seed ~pool_size:2 path with
  | `Crashed -> ()
  | `Completed -> Alcotest.fail "expected the workload to crash");
  (* now crash recovery itself at every I/O until it survives *)
  let k = ref 0 in
  let recovered = ref false in
  while not !recovered do
    (match Storage.Engine.open_db ~crash_after:!k path with
    | eng ->
        (* the open (and its recovery) survived; close may still hit the
           remaining fault budget — that is just one more crash *)
        (try Storage.Engine.close eng
         with Storage.Fault.Crash _ -> Storage.Engine.crash eng);
        recovered := true
    | exception Storage.Fault.Crash _ -> ());
    incr k;
    if !k > 200 then Alcotest.fail "recovery never survived"
  done;
  check_committed_state ~what:"after crashed recoveries" path;
  Alcotest.(check bool) "recovery was crashed at least once" true (!k > 1);
  cleanup path

(* every interleaving seed, no crash: engine state = model committed state *)
let prop_engine_matches_model_no_crash =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:25 ~name:"engine = model on crash-free runs"
       (QCheck2.Gen.int_range 0 100_000) (fun seed ->
         let path = fresh_path () in
         let r = run_workload ~seed ~pool_size:3 path in
         let entries = Storage.Wal.read_entries (Storage.Engine.wal_path path) in
         let model_log = Storage.Wal.to_model (wal_records entries) in
         let expected =
           R.committed_state model_log
           |> List.filter (fun (_, v) -> v <> 0)
           |> List.sort compare
         in
         let eng = Storage.Engine.open_db path in
         let actual = Storage.Engine.items eng in
         Storage.Engine.close eng;
         cleanup path;
         r = `Completed && actual = expected))

(* --- offline WAL verifier: the engine-correctness contract -------------------

   Wal_lint's claim is that its errors are protocol violations the engine
   can never commit: any log the engine produces — including survivor
   logs left by injected crashes — lints with zero errors, while a single
   mutated byte in the durable prefix always draws at least one
   diagnostic. *)

let wal_lint_errors path =
  List.filter Analysis.Diagnostic.(fun d -> d.severity = Error)
    (Analysis.Wal_lint.lint_file (Storage.Engine.wal_path path))

let show_diags diags =
  String.concat "; "
    (List.map (fun d -> d.Analysis.Diagnostic.code) diags)

(* crash-anywhere: the raw survivor log, as the crash left it, is
   error-free (torn tails and live losers are warnings/infos) *)
let prop_survivor_log_lints_clean =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:40 ~name:"survivor wal lints with zero errors"
       QCheck2.Gen.(pair (int_range 0 100_000) (int_range 0 40))
       (fun (seed, crash_after) ->
         let path = fresh_path () in
         ignore (run_workload ~crash_after ~seed ~pool_size:3 path
                 : [ `Completed | `Crashed ]);
         let errors = wal_lint_errors path in
         cleanup path;
         if errors <> [] then
           QCheck2.Test.fail_reportf "survivor log has errors: %s"
             (show_diags errors)
         else true))

(* silent-fault sweep: torn writes and bit flips can leave genuine
   mid-log corruption (a WL008 *true* positive), so the contract is
   stated after recovery has repaired the log: reopen, then lint *)
let prop_recovered_log_lints_clean =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:30 ~name:"recovered wal lints with zero errors"
       (QCheck2.Gen.int_range 0 100_000) (fun seed ->
         let specs =
           [| ""; "torn=0.05"; "flip=0.05"; "crash=9,torn=0.04";
              "torn=0.03,flip=0.03,eio=0.08" |]
         in
         let spec0 = specs.(seed mod Array.length specs) in
         let spec =
           if spec0 = "" then "" else Printf.sprintf "%s,seed=%d" spec0 seed
         in
         let path = fresh_path () in
         let faults = Storage.Fault.spec_of_string spec in
         let programs =
           Transactions.Workload.generate (Support.Rng.create seed)
             {
               Transactions.Workload.txns = 4;
               ops_per_txn = 5;
               items = 6;
               skew = 0.5;
               write_ratio = 0.6;
             }
         in
         (match Storage.Engine.open_db ~pool_size:4 ~faults path with
         | eng ->
             let config = { Storage.Executor.default_config with seed } in
             let stats =
               Storage.Executor.run ~config (Storage.Executor.engine eng) programs
             in
             if stats.Storage.Executor.crashed = None then (
               try Storage.Engine.close eng
               with Storage.Fault.Crash _ -> Storage.Engine.crash eng)
         | exception Storage.Fault.Crash _ -> ());
         (* restart recovery truncates damage and resolves the losers *)
         (match Storage.Engine.open_db path with
         | eng -> Storage.Engine.close eng
         | exception Storage.Fault.Crash _ -> assert false);
         let errors = wal_lint_errors path in
         cleanup path;
         if errors <> [] then
           QCheck2.Test.fail_reportf "recovered log has errors: %s"
             (show_diags errors)
         else true))

(* A clean open writes nothing: after one recovering open and close,
   each open that inspects (items, the tables and their tuples) and
   closes leaves the database and its log byte-identical, however the
   workload before it ended. *)
let prop_clean_reopen_changes_no_byte =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:40 ~name:"a clean reopen changes no byte"
       QCheck2.Gen.(pair (int_range 0 100_000) (int_range 0 60))
       (fun (seed, crash_after) ->
         let path = fresh_path () in
         let eng = Storage.Engine.open_db ~pool_size:4 path in
         Storage.Engine.save_table eng "t" (students ());
         Storage.Engine.close eng;
         let programs =
           Transactions.Workload.generate (Support.Rng.create seed)
             {
               Transactions.Workload.txns = 4;
               ops_per_txn = 5;
               items = 6;
               skew = 0.5;
               write_ratio = 0.6;
             }
         in
         (match Storage.Engine.open_db ~pool_size:4 ~crash_after path with
         | eng ->
             let config = { Storage.Executor.default_config with seed } in
             let stats =
               Storage.Executor.run ~config (Storage.Executor.engine eng) programs
             in
             if stats.Storage.Executor.crashed = None then (
               try Storage.Engine.close eng
               with Storage.Fault.Crash _ -> Storage.Engine.crash eng)
         | exception Storage.Fault.Crash _ -> ());
         (* the recovering open *)
         Storage.Engine.close (Storage.Engine.open_db path);
         let files () =
           ( Support.Io.read_file path,
             Support.Io.read_file (Storage.Engine.wal_path path) )
         in
         let before = files () in
         let inspect () =
           let eng = Storage.Engine.open_db path in
           ignore (Storage.Engine.items eng : (string * int) list);
           List.iter
             (fun tb ->
               ignore
                 (Storage.Engine.load_table eng tb.Storage.Heap.name
                   : Relational.Relation.t))
             (Storage.Engine.tables eng);
           Storage.Engine.close eng;
           files () = before
         in
         let unchanged = List.for_all inspect [ (); (); () ] in
         cleanup path;
         if not unchanged then
           QCheck2.Test.fail_reportf "seed %d, crash after %d: a clean reopen wrote"
             seed crash_after
         else true))

(* tamper detection: CRC framing means no single-byte mutation of the
   durable prefix escapes the verifier *)
let prop_mutated_byte_is_detected =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:60 ~name:"one mutated wal byte draws a diagnostic"
       QCheck2.Gen.(pair (int_range 0 100_000) (int_range 0 1_000_000))
       (fun (seed, pos_seed) ->
         let path = fresh_path () in
         (match run_workload ~seed ~pool_size:3 path with
         | `Completed -> ()
         | `Crashed -> assert false);
         let wal = Storage.Engine.wal_path path in
         let clean = Analysis.Wal_lint.lint_file wal in
         let image =
           let ic = open_in_bin wal in
           let n = in_channel_length ic in
           let s = really_input_string ic n in
           close_in ic;
           s
         in
         let pos = pos_seed mod String.length image in
         let mutated = Bytes.of_string image in
         Bytes.set mutated pos
           (Char.chr (Char.code image.[pos] lxor 0x40));
         let diags = Analysis.Wal_lint.lint (Storage.Wal.scan_report (Bytes.to_string mutated)) in
         cleanup path;
         if clean <> [] then
           QCheck2.Test.fail_reportf "log not clean before mutation: %s"
             (show_diags clean)
         else if diags = [] then
           QCheck2.Test.fail_reportf "mutation at byte %d went undetected" pos
         else true))

let test_wal_truncated_at_open () =
  let path = fresh_path () in
  let wal = Storage.Engine.wal_path path in
  let eng = Storage.Engine.open_db path in
  let txn = Storage.Engine.begin_txn eng in
  Storage.Engine.write eng ~txn "x" 7;
  Storage.Engine.commit eng ~txn;
  Storage.Engine.close eng;
  (* simulate a torn append *)
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 wal in
  output_string oc "\x01\x02\x03\x04\x05";
  close_out oc;
  let before = Storage.Wal.report_file wal in
  Alcotest.(check int) "scan sees the torn bytes" 5
    (before.Storage.Wal.total_bytes - before.Storage.Wal.clean_bytes);
  Alcotest.(check bool) "a torn tail never resyncs" true
    (before.Storage.Wal.resync = None);
  let log, _ = Storage.Wal.open_log wal in
  Alcotest.(check int) "open reports the truncated tail" 5
    (Storage.Wal.truncated_at_open log);
  Storage.Wal.close log;
  let after = Storage.Wal.report_file wal in
  Alcotest.(check int) "open physically truncated the tail" 0
    (after.Storage.Wal.total_bytes - after.Storage.Wal.clean_bytes);
  let log2, _ = Storage.Wal.open_log wal in
  Alcotest.(check int) "clean log truncates nothing" 0
    (Storage.Wal.truncated_at_open log2);
  Storage.Wal.close log2;
  cleanup path

(* The log-file protocol under a crash at any flush: batches of random
   frames are flushed one by one until the crash tears one; a reopen
   must scan exactly the frames flushed before it, plus those of the
   torn batch that lie whole in the half that reached the disk, and
   frames appended after the reopen must follow them.  Then an fsync that exhausts its
   retries must leave the file at its durable length, with the frames
   still pending for a later flush. *)
let prop_log_file_crash_reopen =
  let module LF = Storage.Log_file in
  let payload = QCheck2.Gen.(string_size ~gen:char (int_range 0 40)) in
  let batches = QCheck2.Gen.(list_size (int_range 1 4) (list_size (int_range 1 3) payload)) in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:200 ~name:"log file: crash, reopen, append"
       QCheck2.Gen.(
         quad batches (int_range 0 4) (list_size (int_range 1 3) payload)
           (int_range 0 1000))
       (fun (batches, crash_at, more, seed) ->
         let path = fresh_path () in
         let any _ _ _ = true in
         let fault = Storage.Fault.create () in
         let log, _ = LF.open_file ~fault ~valid:any path in
         let rec run i durable = function
           | [] ->
               LF.close log;
               durable
           | batch :: rest ->
               List.iter (fun p -> ignore (LF.append log (LF.frame p) : int)) batch;
               if i = crash_at then begin
                 Storage.Fault.arm fault 0;
                 (match LF.flush log ~at:"log flush" with
                 | () -> QCheck2.Test.fail_report "the armed flush did not crash"
                 | exception Storage.Fault.Crash _ -> ());
                 LF.abandon log;
                 let half = String.length (String.concat "" (List.map LF.frame batch)) / 2 in
                 let whole, _ =
                   List.fold_left
                     (fun (acc, ends) p ->
                       let ends = ends + String.length (LF.frame p) in
                       ((if ends <= half then acc @ [ p ] else acc), ends))
                     ([], 0) batch
                 in
                 durable @ whole
               end
               else begin
                 LF.flush log ~at:"log flush";
                 run (i + 1) (durable @ batch) rest
               end
         in
         let durable = run 0 [] batches in
         let log, image = LF.open_file ~fault ~valid:any path in
         let scanned = List.map snd (fst (LF.payloads image)) in
         let size () = (Unix.stat path).Unix.st_size in
         let length = size () in
         List.iter (fun p -> ignore (LF.append log (LF.frame p) : int)) more;
         Storage.Fault.configure fault
           {
             Storage.Fault.no_faults with
             eio = [ { Storage.Fault.scope = None; prob = 1. } ];
             seed = Some seed;
           };
         let exhausted =
           match LF.flush log ~at:"log flush" ~fsync_at:"log fsync" with
           | () -> false
           | exception Storage.Fault.Io_error _ -> true
         in
         let after_failure = size () in
         Storage.Fault.configure fault Storage.Fault.no_faults;
         LF.flush log ~at:"log flush" ~fsync_at:"log fsync";
         LF.close log;
         let final = List.map snd (LF.read_payloads path) in
         cleanup path;
         if scanned <> durable then
           QCheck2.Test.fail_reportf "reopen scanned %d frame(s), %d were durable"
             (List.length scanned) (List.length durable)
         else if not exhausted then QCheck2.Test.fail_report "fsync did not fail"
         else if after_failure <> length then
           QCheck2.Test.fail_reportf "failed fsync left %d bytes, durable %d"
             after_failure length
         else if final <> durable @ more then
           QCheck2.Test.fail_report "frames appended after the reopen were lost"
         else true))

let test_scan_report_resync_classification () =
  let frame r = Storage.Wal.frame_of_record r in
  let f1 = frame (Storage.Wal.Begin 1) in
  let f2 = frame (Storage.Wal.Commit 1) in
  (* mid-log corruption: smash the first frame, the second survives *)
  let img = Bytes.of_string (f1 ^ f2) in
  Bytes.set img 9 '\xff';
  let r = Storage.Wal.scan_report (Bytes.to_string img) in
  Alcotest.(check int) "valid prefix ends at the damage" 0
    r.Storage.Wal.clean_bytes;
  (match r.Storage.Wal.resync with
  | Some { Storage.Wal.resync_at; resync_records } ->
      Alcotest.(check int) "resync at the second frame" (String.length f1)
        resync_at;
      Alcotest.(check int) "one record decodes after resync" 1
        (List.length resync_records)
  | None -> Alcotest.fail "expected a resync after mid-log damage");
  (* torn tail: trailing garbage after intact frames never resyncs *)
  let torn = Storage.Wal.scan_report (f1 ^ f2 ^ "\x00\x00\x00") in
  Alcotest.(check int) "intact prefix survives"
    (String.length f1 + String.length f2)
    torn.Storage.Wal.clean_bytes;
  Alcotest.(check bool) "no resync in a torn tail" true
    (torn.Storage.Wal.resync = None)

(* --- recovery unit tests (algorithm against a plain hash table) -------------- *)

let test_recovery_analysis () =
  let entries, _ =
    Storage.Wal.scan
      (String.concat ""
         (List.map Storage.Wal.frame_of_record
            [
              Storage.Wal.Begin 1;
              Storage.Wal.Commit 1;
              Storage.Wal.Checkpoint;
              Storage.Wal.Begin 2;
              Storage.Wal.Begin 3;
              Storage.Wal.Abort 3;
              Storage.Wal.Begin 4;
              Storage.Wal.Commit 4;
            ]))
  in
  let a = Storage.Recovery.analyze entries in
  Alcotest.(check bool) "found checkpoint" true (a.Storage.Recovery.checkpoint_lsn <> None);
  Alcotest.(check (list int)) "winners" [ 1; 4 ] a.Storage.Recovery.winners;
  Alcotest.(check (list int)) "losers: begun, not ended" [ 2 ] a.Storage.Recovery.losers

(* The list-based analysis the hash-set version replaced, kept as the
   reference it must equal. *)
let analyze_reference entries =
  let checkpoint = ref None in
  let begun = ref [] and committed = ref [] and ended = ref [] in
  List.iter
    (fun { Storage.Wal.lsn; record } ->
      match record with
      | Storage.Wal.Checkpoint -> checkpoint := Some lsn
      | Storage.Wal.Begin t -> begun := t :: !begun
      | Storage.Wal.Commit t ->
          committed := t :: !committed;
          ended := t :: !ended
      | Storage.Wal.Abort t -> ended := t :: !ended
      | Storage.Wal.Prepare _ | Storage.Wal.Write _ -> ())
    entries;
  let uniq l = List.sort_uniq Int.compare l in
  let ended = uniq !ended in
  ( !checkpoint,
    uniq !committed,
    List.filter (fun t -> not (List.mem t ended)) (uniq !begun) )

let prop_recovery_analysis_matches_reference =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:200 ~name:"recovery analysis = list-based reference"
       (QCheck2.Gen.int_range 0 1_000_000)
       (fun seed ->
         let rng = Support.Rng.create seed in
         let txns = 1 + Support.Rng.int rng 40 in
         let entries =
           List.init (Support.Rng.int rng 300) (fun i ->
               let txn = 1 + Support.Rng.int rng txns in
               let record =
                 match Support.Rng.int rng 6 with
                 | 0 -> Storage.Wal.Begin txn
                 | 1 ->
                     Storage.Wal.Write
                       {
                         txn;
                         item = Printf.sprintf "x%d" (Support.Rng.int rng 5);
                         before = 0;
                         after = i;
                         compensation = false;
                       }
                 | 2 -> Storage.Wal.Commit txn
                 | 3 -> Storage.Wal.Abort txn
                 | 4 -> Storage.Wal.Prepare txn
                 | _ -> Storage.Wal.Checkpoint
               in
               { Storage.Wal.lsn = 16 * i; record })
         in
         let a = Storage.Recovery.analyze entries in
         (a.Storage.Recovery.checkpoint_lsn, a.winners, a.losers)
         = analyze_reference entries))

(* Sort-free analysis: a tally list whose ids arrived in ascending order
   is reversed, not sorted.  Fed id streams of every shape — ascending
   (the engine's own allocation), shuffled (concurrent commits), with
   repeats, and with [begin_txn ~id]-style jumps — interleaved with
   writes, prepares and checkpoints, [analysis] must agree with sorting
   every list outright. *)
let prop_analysis_matches_sorting =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"sort-free analysis = sorting reference"
       (QCheck2.Gen.int_range 0 1_000_000)
       (fun seed ->
         let rng = Support.Rng.create seed in
         let stream () =
           let n = Support.Rng.int rng 40 in
           match Support.Rng.int rng 4 with
           | 0 -> List.init n (fun i -> i + 1)
           | 1 ->
               let a = Array.init n (fun i -> i + 1) in
               Support.Rng.shuffle rng a;
               Array.to_list a
           | 2 -> List.init n (fun _ -> 1 + Support.Rng.int rng (1 + (n / 3)))
           | _ ->
               List.init n (fun i ->
                   if Support.Rng.int rng 5 = 0 then 100 + Support.Rng.int rng 20
                   else i + 1)
         in
         let begins = stream () and commits = stream () and aborts = stream () in
         (* merge the three streams in random order, each kept in its own
            order, with writes, prepares and checkpoints between them *)
         let rec merge acc = function
           | [], [], [] -> List.rev acc
           | b, c, a ->
               let other =
                 match Support.Rng.int rng 3 with
                 | 0 -> `Write
                 | 1 -> `Prepare
                 | _ -> `Checkpoint
               in
               let txn = 1 + Support.Rng.int rng 30 in
               let acc =
                 if Support.Rng.int rng 3 = 0 then
                   (other, if other = `Checkpoint then -1 else txn) :: acc
                 else acc
               in
               (match (Support.Rng.int rng 3, b, c, a) with
               | 0, t :: b', _, _ -> merge ((`Begin, t) :: acc) (b', c, a)
               | 1, _, t :: c', _ -> merge ((`Commit, t) :: acc) (b, c', a)
               | _, _, _, t :: a' -> merge ((`Abort, t) :: acc) (b, c, a')
               | _, t :: b', _, [] -> merge ((`Begin, t) :: acc) (b', c, a)
               | _, [], t :: c', [] -> merge ((`Commit, t) :: acc) (b, c', a)
               | _, [], [], [] -> List.rev acc)
         in
         let frames = merge [] (begins, commits, aborts) in
         let tally = Storage.Recovery.tally () in
         List.iteri (fun i (kind, txn) -> Storage.Recovery.note tally (16 * i) kind txn) frames;
         let a = Storage.Recovery.analysis tally in
         (* the reference sorts every list *)
         let uniq l = List.sort_uniq Int.compare l in
         let winners = uniq commits in
         let losers =
           List.filter
             (fun t -> not (List.mem t winners || List.mem t aborts))
             (uniq begins)
         in
         let checkpoint =
           List.fold_left
             (fun acc (i, (kind, _)) -> if kind = `Checkpoint then Some (16 * i) else acc)
             None
             (List.mapi (fun i f -> (i, f)) frames)
         in
         let next_txn = 1 + List.fold_left (fun m (_, t) -> max m t) 0 frames in
         let idle =
           (match List.rev frames with
           | [] | (`Checkpoint, _) :: _ -> true
           | _ -> false)
           && losers = []
         in
         let check what ok =
           if not ok then QCheck2.Test.fail_reportf "seed %d: %s differs" seed what
         in
         check "winners" (a.Storage.Recovery.winners = winners);
         check "losers" (a.losers = losers);
         check "checkpoint" (a.checkpoint_lsn = checkpoint);
         check "next txn" (a.next_txn = next_txn);
         check "idle" (a.idle = idle);
         true))

(* A long history's recovery line stays readable: 16 ids per list, then
   a count of the rest. *)
let test_outcome_caps_ids () =
  let outcome winners =
    {
      Storage.Recovery.checkpoint_lsn = Some 9;
      winners;
      losers = [ 1001; 1002 ];
      redo_applied = 0;
      redo_skipped = 3;
      undone = 0;
    }
  in
  let upto n = List.init n (fun i -> i + 1) in
  Alcotest.(check string) "1,000 winners"
    "checkpoint=9 winners=[1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,\u{2026}+984 \
     more] losers=[1001,1002] redo=0 skipped=3 undone=0"
    (Storage.Recovery.outcome_to_string (outcome (upto 1000)));
  Alcotest.(check string) "16 winners, all shown"
    "checkpoint=9 winners=[1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16] \
     losers=[1001,1002] redo=0 skipped=3 undone=0"
    (Storage.Recovery.outcome_to_string (outcome (upto 16)))

let test_recovery_redo_undo_counts () =
  let w txn item before after =
    Storage.Wal.Write { txn; item; before; after; compensation = false }
  in
  let entries, _ =
    Storage.Wal.scan
      (String.concat ""
         (List.map Storage.Wal.frame_of_record
            [
              Storage.Wal.Begin 1; w 1 "x" 0 5; Storage.Wal.Commit 1;
              Storage.Wal.Begin 2; w 2 "x" 5 9; w 2 "y" 0 3;
            ]))
  in
  let store : (string, int * int) Hashtbl.t = Hashtbl.create 8 in
  (* (value, page-lsn) per item; everything starts cold, lsn -1 *)
  let appended = ref [] in
  let next = ref 10_000 in
  let outcome =
    Storage.Recovery.run ~entries
      ~read:(fun item ->
        match Hashtbl.find_opt store item with Some (v, _) -> v | None -> 0)
      ~write:(fun ~lsn item v ->
        match Hashtbl.find_opt store item with
        | Some (_, l) when l >= lsn -> false
        | _ ->
            Hashtbl.replace store item (v, lsn);
            true)
      ~log:(fun r ->
        appended := r :: !appended;
        incr next;
        !next)
  in
  Alcotest.(check (list int)) "winners" [ 1 ] outcome.Storage.Recovery.winners;
  Alcotest.(check (list int)) "losers" [ 2 ] outcome.Storage.Recovery.losers;
  Alcotest.(check int) "redo all three writes" 3 outcome.Storage.Recovery.redo_applied;
  Alcotest.(check int) "undo both loser writes" 2 outcome.Storage.Recovery.undone;
  Alcotest.(check int) "x back to committed" 5
    (fst (Hashtbl.find store "x"));
  Alcotest.(check int) "y back to absent" 0
    (fst (Hashtbl.find store "y"));
  (* two compensations + one abort were logged *)
  let comps, aborts =
    List.partition
      (function Storage.Wal.Write { compensation = true; _ } -> true | _ -> false)
      !appended
  in
  Alcotest.(check int) "compensations" 2 (List.length comps);
  Alcotest.(check bool) "abort logged" true
    (List.exists (function Storage.Wal.Abort 2 -> true | _ -> false) aborts)

(* --- restart from the restart point = the full-log reference ---------------

   The reference is the full-list path recovery took before restarts
   decoded only from the restart point: copy, CRC-check and decode every
   frame, analyze the whole list, then redo and undo over it.  It is kept
   here, independent of the Wal's frame loop, so the walk, the analysis
   from the walk and the decoded suffix are all checked against it. *)

let decode_reference s =
  let u32 p = Int32.to_int (String.get_int32_le s p) land 0xFFFFFFFF in
  let i64 p = Int64.to_int (String.get_int64_le s p) in
  try
    match Char.code s.[0] with
    | 1 -> Some (Storage.Wal.Begin (u32 1))
    | (2 | 6) as k ->
        let txn = u32 1 in
        let len = String.get_uint16_le s 5 in
        let item = String.sub s 7 len in
        let before = i64 (7 + len) in
        let after = i64 (15 + len) in
        Some (Storage.Wal.Write { txn; item; before; after; compensation = k = 6 })
    | 3 -> Some (Storage.Wal.Commit (u32 1))
    | 4 -> Some (Storage.Wal.Abort (u32 1))
    | 5 -> Some Storage.Wal.Checkpoint
    | 7 -> Some (Storage.Wal.Prepare (u32 1))
    | _ -> None
  with Invalid_argument _ -> None

let scan_reference image =
  let n = String.length image in
  let u32 p = Int32.to_int (String.get_int32_le image p) land 0xFFFFFFFF in
  let rec go pos acc =
    let stop () = (List.rev acc, pos) in
    if pos + 8 > n then stop ()
    else
      let len = u32 (pos + 4) in
      if len > n - pos - 8 then stop ()
      else
        let payload = String.sub image (pos + 8) len in
        if Support.Crc32.string payload <> u32 pos then stop ()
        else
          match decode_reference payload with
          | Some record ->
              go (pos + 8 + len) ({ Storage.Wal.lsn = pos; record } :: acc)
          | None -> stop ()
  in
  go 0 []

(* the item store of [test_recovery_redo_undo_counts]: (value, page lsn) *)
let hashtbl_store init =
  let store : (string, int * int) Hashtbl.t = Hashtbl.create 8 in
  List.iter (fun (item, v, lsn) -> Hashtbl.replace store item (v, lsn)) init;
  let read item =
    match Hashtbl.find_opt store item with Some (v, _) -> v | None -> 0
  in
  let write ~lsn item v =
    match Hashtbl.find_opt store item with
    | Some (_, l) when l >= lsn -> false
    | _ ->
        Hashtbl.replace store item (v, lsn);
        true
  in
  let contents () =
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) store [])
  in
  (read, write, contents)

(* appends get LSNs from the end of the surviving log on, as in the WAL *)
let recording_log ~from =
  let logged = ref [] and next = ref from in
  let log r =
    logged := r :: !logged;
    let lsn = !next in
    next := lsn + String.length (Storage.Wal.frame_of_record r);
    lsn
  in
  (log, fun () -> List.rev !logged)

let recover_reference entries ~read ~write ~log =
  let checkpoint_lsn, winners, losers = analyze_reference entries in
  let redo_applied = ref 0 and redo_skipped = ref 0 in
  let start = match checkpoint_lsn with Some l -> l | None -> -1 in
  List.iter
    (fun { Storage.Wal.lsn; record } ->
      match record with
      | Storage.Wal.Write { item; after; _ } when lsn > start ->
          if write ~lsn item after then incr redo_applied
          else incr redo_skipped
      | _ -> ())
    entries;
  let undone = ref 0 in
  List.iter
    (fun { Storage.Wal.record; _ } ->
      match record with
      | Storage.Wal.Write { txn; item; before; _ } when List.mem txn losers ->
          let clr =
            Storage.Wal.Write
              { txn; item; before = read item; after = before; compensation = true }
          in
          ignore (write ~lsn:(log clr) item before : bool);
          incr undone
      | _ -> ())
    (List.rev entries);
  List.iter (fun t -> ignore (log (Storage.Wal.Abort t) : int)) losers;
  {
    Storage.Recovery.checkpoint_lsn;
    winners;
    losers;
    redo_applied = !redo_applied;
    redo_skipped = !redo_skipped;
    undone = !undone;
  }

let next_txn_reference entries =
  1
  + List.fold_left
      (fun m { Storage.Wal.record; _ } ->
        match record with
        | Storage.Wal.Begin t | Storage.Wal.Commit t | Storage.Wal.Abort t
        | Storage.Wal.Prepare t | Storage.Wal.Write { txn = t; _ } ->
            max m t
        | Storage.Wal.Checkpoint -> m)
      0 entries

(* A random log (writes before their Begin, reused ids, Prepare-only
   transactions, checkpoints anywhere), framed, then maybe damaged: a
   torn tail, a changed byte, trailing junk, or a CRC-valid frame whose
   payload may not decode. *)
let damaged_log rng =
  let txns = 1 + Support.Rng.int rng 12 in
  let records =
    List.init (Support.Rng.int rng 120) (fun i ->
        let txn = 1 + Support.Rng.int rng txns in
        match Support.Rng.int rng 6 with
        | 0 -> Storage.Wal.Begin txn
        | 1 ->
            Storage.Wal.Write
              {
                txn;
                item = Printf.sprintf "x%d" (Support.Rng.int rng 5);
                before = Support.Rng.int rng 9;
                after = 10 + i;
                compensation = Support.Rng.int rng 8 = 0;
              }
        | 2 -> Storage.Wal.Commit txn
        | 3 -> Storage.Wal.Abort txn
        | 4 -> Storage.Wal.Prepare txn
        | _ -> Storage.Wal.Checkpoint)
  in
  let frames = List.map Storage.Wal.frame_of_record records in
  let image = String.concat "" frames in
  let n = String.length image in
  match Support.Rng.int rng 5 with
  | 1 when n > 0 -> String.sub image 0 (Support.Rng.int rng n)
  | 2 when n > 0 ->
      let b = Bytes.of_string image in
      let p = Support.Rng.int rng n in
      Bytes.set b p (Char.chr (Char.code image.[p] lxor (1 + Support.Rng.int rng 255)));
      Bytes.to_string b
  | 3 -> image ^ String.init (1 + Support.Rng.int rng 20) (fun _ -> Char.chr (Support.Rng.int rng 256))
  | 4 ->
      (* a kind byte, random bytes, and for a write a short item length *)
      let item_len = Support.Rng.int rng 12 in
      let payload =
        String.init (Support.Rng.int rng 40) (fun i ->
            Char.chr
              (match i with
              | 0 -> 1 + Support.Rng.int rng 8
              | 5 -> item_len
              | 6 -> 0
              | _ -> Support.Rng.int rng 256))
      in
      let k = Support.Rng.int rng (List.length frames + 1) in
      String.concat ""
        (List.filteri (fun i _ -> i < k) frames
        @ [ Storage.Log_file.frame payload ]
        @ List.filteri (fun i _ -> i >= k) frames)
  | _ -> image

let prop_restart_matches_reference =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"restart = full-log reference"
       (QCheck2.Gen.int_range 0 1_000_000)
       (fun seed ->
         let rng = Support.Rng.create seed in
         let raw = damaged_log rng in
         let init =
           List.init (Support.Rng.int rng 4) (fun i ->
               (Printf.sprintf "x%d" i, Support.Rng.int rng 50,
                Support.Rng.int rng (String.length raw + 1) - 1))
         in
         (* the reference: decode everything, then recover *)
         let entries, clean = scan_reference raw in
         let read, write, ref_store = hashtbl_store init in
         let log, ref_logged = recording_log ~from:clean in
         let expected = recover_reference entries ~read ~write ~log in
         (* the restart: one walk at open, records from the restart point *)
         let path = fresh_path () in
         let file = Storage.Engine.wal_path path in
         Support.Io.write_file file raw;
         let tally = Storage.Recovery.tally () in
         let wal, image =
           Storage.Wal.open_log ~on_frame:(Storage.Recovery.note tally) file
         in
         let truncated = Storage.Wal.truncated_at_open wal in
         Storage.Wal.close wal;
         let on_disk = (Unix.stat file).Unix.st_size in
         cleanup path;
         let analysis = Storage.Recovery.analysis tally in
         let read, write, store = hashtbl_store init in
         let log, logged = recording_log ~from:(String.length image) in
         let outcome = Storage.Recovery.restart ~image analysis ~read ~write ~log in
         let check what ok =
           if not ok then QCheck2.Test.fail_reportf "seed %d: %s differs" seed what
         in
         check "scan" (Storage.Wal.scan raw = (entries, clean));
         check "clean length" (String.length image = clean && on_disk = clean);
         check "surviving image" (image = String.sub raw 0 clean);
         check "truncated bytes" (truncated = String.length raw - clean);
         check "outcome" (outcome = expected);
         check "final store" (store () = ref_store ());
         check "logged records" (logged () = ref_logged ());
         check "next txn" (analysis.Storage.Recovery.next_txn = next_txn_reference entries);
         check "run over the entry list"
           (let read, write, _ = hashtbl_store init in
            let log, _ = recording_log ~from:clean in
            Storage.Recovery.run ~entries ~read ~write ~log = expected);
         true))

(* Every length limit of the walk's structure check, deterministically:
   the open truncates the log where the walk stops, so the walk must
   accept exactly the payloads the reference decodes.  Each kind byte
   0-8, item length 0-3 and payload length 0-30, framed between two
   valid frames. *)
let test_wal_structure_limits () =
  let first = Storage.Wal.frame_of_record (Storage.Wal.Begin 1)
  and last = Storage.Wal.frame_of_record (Storage.Wal.Commit 1) in
  let header { Storage.Wal.lsn; record } =
    (lsn, Storage.Wal.kind_of record, Storage.Wal.txn_of record)
  in
  for kind = 0 to 8 do
    for item_len = 0 to 3 do
      for len = 0 to 30 do
        let payload =
          String.init len (fun i ->
              Char.chr
                (match i with
                | 0 -> kind
                | 1 -> 3
                | 2 | 3 | 4 | 6 -> 0
                | 5 -> item_len
                | _ -> 0x40 + i))
        in
        let image = first ^ Storage.Log_file.frame payload ^ last in
        let what =
          Printf.sprintf "kind %d, item length %d, payload %d" kind item_len len
        in
        let entries, clean = scan_reference image in
        Alcotest.(check bool) (what ^ ": scan") true
          (Storage.Wal.scan image = (entries, clean));
        let headers, walked =
          Storage.Wal.walk image ~init:[] ~f:(fun acc lsn kind txn ->
              (lsn, kind, txn) :: acc)
        in
        Alcotest.(check int) (what ^ ": walk clean length") clean walked;
        Alcotest.(check bool) (what ^ ": walk headers") true
          (List.rev headers = List.map header entries)
      done
    done
  done

(* --- a loser spanning a checkpoint ------------------------------------------ *)

(* [save_table] checkpoints while a transaction is active, so the loser's
   first write precedes the last checkpoint: restart must decode from
   that write, not from the checkpoint, to undo it. *)
let test_loser_spanning_checkpoint () =
  let path = fresh_path () in
  let eng = Storage.Engine.open_db path in
  let t1 = Storage.Engine.begin_txn eng in
  Storage.Engine.write eng ~txn:t1 "x" 1;
  Storage.Engine.commit eng ~txn:t1;
  let t2 = Storage.Engine.begin_txn eng in
  Storage.Engine.write eng ~txn:t2 "x" 5;
  Storage.Engine.save_table eng "t" (students ());
  Storage.Engine.write eng ~txn:t2 "y" 6;
  Storage.Wal.flush (Storage.Engine.wal eng);
  Storage.Engine.crash eng;
  let eng = Storage.Engine.open_db path in
  Alcotest.(check (list (pair string int))) "only the committed write" [ ("x", 1) ]
    (Storage.Engine.items eng);
  (match Storage.Engine.last_recovery eng with
  | Some o ->
      Alcotest.(check bool) "recovered from a checkpoint" true
        (o.Storage.Recovery.checkpoint_lsn <> None);
      Alcotest.(check (list int)) "t2 is the loser" [ t2 ] o.Storage.Recovery.losers;
      Alcotest.(check int) "both of its writes undone" 2 o.Storage.Recovery.undone
  | None -> Alcotest.fail "expected a recovery outcome");
  Storage.Engine.close eng;
  cleanup path

let suite =
  [
    Alcotest.test_case "crc32 vectors" `Quick test_crc32_vectors;
    Alcotest.test_case "crc32 incremental" `Quick test_crc32_incremental;
    prop_crc32_matches_reference;
    Alcotest.test_case "codec roundtrip" `Quick test_codec_roundtrip;
    Alcotest.test_case "codec corrupt" `Quick test_codec_corrupt;
    prop_walk_matches_tuple_of_string;
    Alcotest.test_case "page slots" `Quick test_page_slots;
    Alcotest.test_case "page full" `Quick test_page_full;
    Alcotest.test_case "page lsn monotone" `Quick test_page_lsn_monotone;
    Alcotest.test_case "page crc" `Quick test_page_crc;
    Alcotest.test_case "pager roundtrip" `Quick test_pager_roundtrip;
    Alcotest.test_case "pager detects corruption" `Quick test_pager_detects_corruption;
    Alcotest.test_case "pager rejects garbage" `Quick test_pager_rejects_garbage;
    Alcotest.test_case "pager reuses unreached pages" `Quick test_pager_reuses_unreached;
    Alcotest.test_case "pool counters and lru" `Quick test_pool_counters_and_lru;
    Alcotest.test_case "pool dirty flush and wal barrier" `Quick
      test_pool_dirty_flush_and_barrier;
    Alcotest.test_case "pool exhausted" `Quick test_pool_exhausted;
    prop_pool_matches_model;
    Alcotest.test_case "pool failed reads" `Quick test_pool_failed_reads;
    Alcotest.test_case "wal roundtrip" `Quick test_wal_roundtrip;
    Alcotest.test_case "wal torn tail" `Quick test_wal_torn_tail;
    prop_wal_model_roundtrip;
    Alcotest.test_case "heap relation roundtrip" `Quick test_heap_relation_roundtrip;
    Alcotest.test_case "heap many pages" `Quick test_heap_many_pages;
    Alcotest.test_case "heap replace table" `Quick test_heap_replace_table;
    Alcotest.test_case "heap replace keeps catalog pages" `Quick
      test_heap_replace_keeps_catalog_pages;
    Alcotest.test_case "engine commit persists" `Quick test_engine_commit_persists;
    Alcotest.test_case "engine abort restores" `Quick test_engine_abort_restores;
    Alcotest.test_case "engine strict locks" `Quick test_engine_strict_locks;
    Alcotest.test_case "engine crash loses uncommitted" `Quick
      test_engine_crash_loses_uncommitted;
    Alcotest.test_case "recovery analysis" `Quick test_recovery_analysis;
    prop_recovery_analysis_matches_reference;
    prop_analysis_matches_sorting;
    Alcotest.test_case "recovery line caps its id lists" `Quick test_outcome_caps_ids;
    Alcotest.test_case "recovery redo/undo counts" `Quick test_recovery_redo_undo_counts;
    prop_restart_matches_reference;
    Alcotest.test_case "wal structure limits" `Quick test_wal_structure_limits;
    Alcotest.test_case "loser spanning a checkpoint" `Quick
      test_loser_spanning_checkpoint;
    Alcotest.test_case "crash matrix" `Slow test_crash_matrix;
    Alcotest.test_case "crash matrix, deep restart" `Slow
      test_crash_matrix_deep_restart;
    Alcotest.test_case "crash during recovery" `Quick test_crash_during_recovery;
    prop_engine_matches_model_no_crash;
    Alcotest.test_case "wal truncated_at_open" `Quick test_wal_truncated_at_open;
    prop_log_file_crash_reopen;
    Alcotest.test_case "wal resync classification" `Quick
      test_scan_report_resync_classification;
    prop_survivor_log_lints_clean;
    prop_recovered_log_lints_clean;
    prop_clean_reopen_changes_no_byte;
    prop_mutated_byte_is_detected;
  ]
