type report = { annotations : Annotate.block_annotation list }
