let solve ~entries ~join ~equal ~widen ~transfer =
  let states = Hashtbl.create 64 in
  let counts = Hashtbl.create 64 in
  let work = Queue.create () in
  let schedule (a, st) =
    match Hashtbl.find_opt states a with
    | None ->
      Hashtbl.replace states a st;
      Queue.push a work
    | Some old ->
      let j = join old st in
      if not (equal j old) then begin
        let count = Option.value ~default:0 (Hashtbl.find_opt counts a) + 1 in
        Hashtbl.replace counts a count;
        let w = widen a ~count ~old j in
        if not (equal w old) then begin
          Hashtbl.replace states a w;
          Queue.push a work
        end
      end
  in
  List.iter schedule entries;
  while not (Queue.is_empty work) do
    let a = Queue.pop work in
    List.iter schedule (transfer a (Hashtbl.find states a))
  done;
  states
