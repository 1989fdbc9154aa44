<sales>{ for $s in $ROOT/site return for $a in $s/closed_auctions/closed_auction, $p in $s/people/person where $a/buyer = $p/@id return <sale>{$p/name}{$a/price}</sale> }</sales>
