module Tuple_set = Relational.Relation.Tuple_set

type metrics = {
  m_iterations : Obs.Registry.Counter.t;
  m_derivations : Obs.Registry.Counter.t;
  m_strata : Obs.Registry.Counter.t;
  m_delta : Obs.Histogram.t;
}

let make_metrics registry =
  let counter = Obs.Registry.counter registry in
  {
    m_iterations =
      counter ~unit:"rounds" ~help:"semi-naive evaluation rounds"
        "datalog.iterations";
    m_derivations =
      counter ~unit:"tuples" ~help:"tuples derived (before dedup)"
        "datalog.derivations";
    m_strata = counter ~unit:"strata" ~help:"strata evaluated" "datalog.strata";
    m_delta =
      Obs.Registry.histogram registry ~unit:"tuples"
        ~help:"delta size per semi-naive round" "datalog.delta_size";
  }

let () = ignore (make_metrics Obs.Registry.declared)

let eval_with_stats ?(metrics = Obs.Registry.noop) prog edb =
  Checks.check_safety prog;
  let strata = Checks.stratify prog in
  let edb = Facts.union edb (Facts.of_program_facts prog) in
  let iterations = ref 0 and derivations = ref 0 in
  let { m_iterations; m_derivations; m_strata; m_delta } =
    make_metrics metrics
  in
  let eval_stratum all rules =
    Obs.Registry.Counter.incr m_strata;
    let rules = List.filter (fun r -> r.Ast.body <> []) rules in
    let recursive = Engine.stratum_preds rules in
    let is_recursive_pred p = List.mem p recursive in
    (* first round: plain evaluation over everything known so far *)
    incr iterations;
    let first =
      List.fold_left
        (fun acc rule ->
          let out =
            Engine.eval_rule
              ~pos_source:(fun _ p -> Facts.get all p)
              ~neg_source:(Facts.get all) rule
          in
          derivations := !derivations + Tuple_set.cardinal out;
          Facts.set acc rule.Ast.head.Ast.pred
            (Tuple_set.union (Facts.get acc rule.Ast.head.Ast.pred) out))
        Facts.empty rules
    in
    let delta = Facts.diff_new first all in
    let rec loop prev delta =
      if Facts.is_empty delta then prev
      else begin
        incr iterations;
        Obs.Histogram.observe m_delta (Facts.total delta);
        let full = Facts.union prev delta in
        let candidate =
          List.fold_left
            (fun acc rule ->
              (* one delta-rule per recursive body position *)
              let rec_positions =
                List.mapi (fun i lit -> (i, lit)) rule.Ast.body
                |> List.filter_map (fun (i, lit) ->
                       match (lit : Ast.literal) with
                       | Ast.Pos a when is_recursive_pred a.Ast.pred -> Some i
                       | Ast.Pos _ | Ast.Neg _ | Ast.Cmp _ -> None)
              in
              List.fold_left
                (fun acc k ->
                  let pos_source i p =
                    if i = k then Facts.get delta p
                    else if i < k then Facts.get full p
                    else Facts.get prev p
                  in
                  let out =
                    Engine.eval_rule ~pos_source ~neg_source:(Facts.get full)
                      rule
                  in
                  derivations := !derivations + Tuple_set.cardinal out;
                  Facts.set acc rule.Ast.head.Ast.pred
                    (Tuple_set.union
                       (Facts.get acc rule.Ast.head.Ast.pred)
                       out))
                acc rec_positions)
            Facts.empty rules
        in
        let delta' = Facts.diff_new candidate full in
        loop full delta'
      end
    in
    loop all delta
  in
  let result = List.fold_left eval_stratum edb strata in
  Obs.Registry.Counter.add m_iterations !iterations;
  Obs.Registry.Counter.add m_derivations !derivations;
  (result, { Naive.iterations = !iterations; derivations = !derivations })

let eval prog edb = fst (eval_with_stats prog edb)

let query prog edb q =
  Naive.filter_by_query (Facts.get (eval prog edb) q.Ast.pred) q
