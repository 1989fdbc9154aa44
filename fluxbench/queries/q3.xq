<results>{ for $b in $ROOT/bib/book return <result>{$b/title}{$b/author}</result> }</results>
