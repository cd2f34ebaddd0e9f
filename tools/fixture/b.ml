let length l = List.fold_left (fun n _ -> n + 1) 0 l
let total = length [ 1; 2 ] + A.f 1
let opened = A.(g ()) + let open A in g ()

module X = A

let aliased = X.g ()
