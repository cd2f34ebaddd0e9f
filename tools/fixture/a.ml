let length = List.length
let f ?(opt = 0) x = x + opt
let g () = length [ 1 ]
