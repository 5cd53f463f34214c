type report = { annotations : Annotate.stack_annotation list }
