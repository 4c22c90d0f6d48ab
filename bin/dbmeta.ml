(* dbmeta — the command-line face of the library: the evaluators
   (Eval_cmds), the persistent database (Db_cmds) and the lint suites
   (Lint_cmds), over the plumbing they share (Cli). *)

open Cmdliner

let () =
  let doc = "database metatheory workbench (PODS '95 reproduction)" in
  exit
    (Cmd.eval'
       (Cmd.group
          (Cmd.info "dbmeta" ~version:Cli.version ~doc)
          (Eval_cmds.cmds @ [ Db_cmds.cmd; Lint_cmds.cmd ])))
